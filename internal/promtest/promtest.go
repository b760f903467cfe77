// Package promtest is a strict little parser and linter for the Prometheus
// text exposition format — enough to lint what solverd emits. It is a test
// helper package: every entry point takes a *testing.T, and only _test files
// import it (the server, cluster and obs expositions all lint against the
// same rules instead of each package growing its own parser).
package promtest

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Sample is one parsed exposition line: name{labels} value, optionally
// followed by an OpenMetrics exemplar (`# {trace_id="…"} value timestamp`)
// on _bucket lines.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	Line   string
	// Exemplar holds the raw exemplar portion after " # " ("" when absent).
	Exemplar string
}

// Label returns the value of the named label, or "" when absent.
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

type Label struct{ Name, Value string }

// Family groups the HELP/TYPE metadata and samples of one metric family.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// ParseExposition parses a text exposition into its families. Histogram
// _bucket/_sum/_count series are folded into their base family. Any line the
// strict grammar rejects, and a second HELP or TYPE line for one family,
// fails the test.
func ParseExposition(t *testing.T, body string) map[string]*Family {
	t.Helper()
	families := make(map[string]*Family)
	get := func(name string) *Family {
		f, ok := families[name]
		if !ok {
			f = &Family{Name: name}
			families[name] = f
		}
		return f
	}
	// A histogram's _bucket/_sum/_count series belong to the base family.
	base := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name {
				if f, ok := families[trimmed]; ok && f.Type == "histogram" {
					return trimmed
				}
			}
		}
		return name
	}
	seen := make(map[string]bool) // "HELP name" / "TYPE name" lines so far
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if meta, ok := strings.CutPrefix(line, "# "); ok {
			if keyword, rest, _ := strings.Cut(meta, " "); keyword == "HELP" || keyword == "TYPE" {
				name, text, found := strings.Cut(rest, " ")
				if !found {
					t.Fatalf("%s line without text: %q", keyword, line)
				}
				if seen[keyword+" "+name] {
					t.Fatalf("repeated %s line for family %q", keyword, name)
				}
				seen[keyword+" "+name] = true
				if keyword == "HELP" {
					get(name).Help = text
				} else {
					get(name).Type = text
				}
				continue
			}
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		sample, err := parseSampleLine(line)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		f := get(base(sample.Name))
		f.Samples = append(f.Samples, sample)
	}
	return families
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Line: line}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("no value separator")
	}
	s.Name = line[:i]
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		if s.Labels, rest, err = cutLabelSet(rest); err != nil {
			return s, err
		}
	}
	// An exemplar rides after the value as ` # {labels} value [timestamp]`
	// (OpenMetrics); split it off and validate its shape separately.
	if value, exemplar, found := strings.Cut(rest, " # "); found {
		if err := checkExemplar(exemplar); err != nil {
			return s, err
		}
		s.Exemplar = exemplar
		rest = value
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("bad value: %v", err)
	}
	s.Value = v
	return s, nil
}

// checkExemplar validates the portion after " # ": a {label="value",...} set
// followed by a float value and an optional float timestamp.
func checkExemplar(ex string) error {
	if len(ex) == 0 || ex[0] != '{' {
		return fmt.Errorf("exemplar without label set: %q", ex)
	}
	labels, rest, err := cutLabelSet(ex)
	if err != nil {
		return err
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Name) {
			return fmt.Errorf("illegal exemplar label name %q", l.Name)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("exemplar needs a value and optional timestamp: %q", ex)
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			return fmt.Errorf("bad exemplar number %q: %v", f, err)
		}
	}
	return nil
}

// cutLabelSet splits a leading {name="value",...} set off s.
func cutLabelSet(s string) (labels []Label, rest string, err error) {
	rest = s[1:]
	for !strings.HasPrefix(rest, "}") {
		name, tail, found := strings.Cut(rest, "=")
		if !found {
			return nil, "", fmt.Errorf("unterminated label set: %q", s)
		}
		value, tail, err := cutQuoted(tail)
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, Label{Name: name, Value: value})
		rest = strings.TrimPrefix(tail, ",")
	}
	return labels, rest[1:], nil
}

// cutQuoted splits a leading quoted label value off s and unescapes it. The
// text format knows exactly three escapes — \\, \" and \n — so any other
// (Go's \t or \x00, say) is an error: Prometheus rejects the whole scrape.
func cutQuoted(s string) (value, rest string, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("label value not quoted: %q", s)
	}
	var v strings.Builder
	for j := 1; j < len(s); j++ {
		switch c := s[j]; c {
		case '\\':
			j++
			if j == len(s) {
				break // a trailing backslash: unterminated
			}
			switch s[j] {
			case '\\', '"':
				v.WriteByte(s[j])
			case 'n':
				v.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("illegal escape \\%c in label value %q", s[j], s)
			}
		case '"':
			return v.String(), s[j+1:], nil
		default:
			v.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value: %q", s)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// LintFamilies runs every family through the exposition rules as a subtest:
// HELP and TYPE present, legal metric/label names, non-negative counters,
// and — for histograms — cumulative bucket monotonicity with a terminal
// +Inf bucket matching _count.
func LintFamilies(t *testing.T, families map[string]*Family) {
	t.Helper()
	for name, f := range families {
		f := f
		t.Run(name, func(t *testing.T) {
			LintFamily(t, f)
		})
	}
}

// LintFamily checks one family against the exposition rules.
func LintFamily(t *testing.T, f *Family) {
	t.Helper()
	if !metricNameRe.MatchString(f.Name) {
		t.Errorf("illegal metric name %q", f.Name)
	}
	if f.Help == "" {
		t.Errorf("family %q has no HELP", f.Name)
	}
	switch f.Type {
	case "counter", "gauge", "histogram":
	default:
		t.Errorf("family %q has TYPE %q", f.Name, f.Type)
	}
	for _, s := range f.Samples {
		for _, l := range s.Labels {
			if !labelNameRe.MatchString(l.Name) {
				t.Errorf("illegal label name %q in %q", l.Name, s.Line)
			}
		}
		if f.Type == "counter" && s.Value < 0 {
			t.Errorf("negative counter: %q", s.Line)
		}
	}
	if f.Type == "histogram" {
		LintHistogram(t, f)
	}
}

// RequireFamilies fails for each named family missing from the exposition.
func RequireFamilies(t *testing.T, families map[string]*Family, names ...string) {
	t.Helper()
	for _, want := range names {
		if _, ok := families[want]; !ok {
			t.Errorf("family %q missing from the exposition", want)
		}
	}
}

// SingleValue returns the value of a family's sole sample, failing when the
// family is absent or has more than one series.
func SingleValue(t *testing.T, families map[string]*Family, name string) float64 {
	t.Helper()
	f, ok := families[name]
	if !ok || len(f.Samples) != 1 {
		t.Fatalf("family %q: %+v", name, f)
	}
	return f.Samples[0].Value
}

// HistogramCount returns the _count of the histogram series matching every
// given label (pass none for an unlabelled histogram); -1 when no _count
// sample matches.
func HistogramCount(t *testing.T, families map[string]*Family, name string, labels ...Label) float64 {
	t.Helper()
	f, ok := families[name]
	if !ok {
		t.Fatalf("histogram family %q missing", name)
	}
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_count") {
			continue
		}
		match := true
		for _, want := range labels {
			if s.Label(want.Name) != want.Value {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return -1
}

// LintHistogram checks bucket structure: per label-set cumulative counts are
// non-decreasing, the terminal bucket is le="+Inf", and it equals _count.
func LintHistogram(t *testing.T, f *Family) {
	t.Helper()
	type series struct {
		buckets []Sample
		sum     *Sample
		count   *Sample
	}
	bySet := make(map[string]*series)
	keyOf := func(s Sample) string {
		var parts []string
		for _, l := range s.Labels {
			if l.Name == "le" {
				continue
			}
			parts = append(parts, l.Name+"="+l.Value)
		}
		return strings.Join(parts, ",")
	}
	get := func(k string) *series {
		sr, ok := bySet[k]
		if !ok {
			sr = &series{}
			bySet[k] = sr
		}
		return sr
	}
	for i := range f.Samples {
		s := f.Samples[i]
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			get(keyOf(s)).buckets = append(get(keyOf(s)).buckets, s)
		case strings.HasSuffix(s.Name, "_sum"):
			get(keyOf(s)).sum = &f.Samples[i]
		case strings.HasSuffix(s.Name, "_count"):
			get(keyOf(s)).count = &f.Samples[i]
		default:
			t.Errorf("histogram %q has stray sample %q", f.Name, s.Line)
		}
	}
	for key, sr := range bySet {
		if len(sr.buckets) == 0 || sr.sum == nil || sr.count == nil {
			t.Errorf("histogram %q{%s}: incomplete series (buckets=%d sum=%v count=%v)",
				f.Name, key, len(sr.buckets), sr.sum != nil, sr.count != nil)
			continue
		}
		prevBound, prevCount := -1.0, -1.0
		for _, b := range sr.buckets {
			le := b.Label("le")
			if le == "" {
				t.Errorf("bucket without le: %q", b.Line)
				continue
			}
			bound := 0.0
			if le == "+Inf" {
				bound = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Errorf("bad le %q in %q", le, b.Line)
					continue
				}
				bound = v
			}
			if bound <= prevBound {
				t.Errorf("histogram %q{%s}: le=%s out of order", f.Name, key, le)
			}
			if b.Value < prevCount {
				t.Errorf("histogram %q{%s}: bucket counts not cumulative at le=%s (%g < %g)",
					f.Name, key, le, b.Value, prevCount)
			}
			prevBound, prevCount = bound, b.Value
		}
		last := sr.buckets[len(sr.buckets)-1]
		if lastLe := last.Label("le"); lastLe != "+Inf" {
			t.Errorf("histogram %q{%s}: terminal bucket le=%q, want +Inf", f.Name, key, lastLe)
		}
		if last.Value != sr.count.Value {
			t.Errorf("histogram %q{%s}: +Inf bucket %g != count %g",
				f.Name, key, last.Value, sr.count.Value)
		}
	}
}
