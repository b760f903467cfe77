package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// fleetFanoutTimeout bounds one fleet collection round (/cluster/v1/self,
// /cluster/v1/trace, /cluster/v1/events). Members answer from small
// in-memory stores, so one that cannot answer in this window is listed as
// missing rather than stalling the fleet view.
const fleetFanoutTimeout = 5 * time.Second

// newPeerRequest builds one outbound fabric request; every forward, fill,
// probe and fleet read goes through it. The request carries X-Request-Id —
// the caller's trace id when it is valid, so the hop is searchable under the
// originating request in every node's access log, and a fresh one otherwise
// — plus the cluster secret when set, and parentSpan (when non-empty) as
// X-Parent-Span so the peer's trace fragment stitches under the calling span.
// A non-nil body is sent as JSON.
func newPeerRequest(ctx context.Context, secret, method, peer, path string, body []byte, parentSpan string) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	id := telemetry.FromContext(ctx).ID()
	if !telemetry.ValidID(id) {
		id = telemetry.NewID()
	}
	req.Header.Set("X-Request-Id", id)
	if secret != "" {
		req.Header.Set(headerSecret, secret)
	}
	if parentSpan != "" {
		req.Header.Set("X-Parent-Span", parentSpan)
	}
	return req, nil
}

// fleetGet reads one member's JSON answer from GET path (see peerJSON).
func fleetGet[T any](ctx context.Context, g *Gateway, peer, path string, maxBytes int64, emptyOn404 bool) (T, bool) {
	req, err := newPeerRequest(ctx, g.cfg.Secret, http.MethodGet, peer, path, nil, "")
	if err != nil {
		var zero T
		return zero, false
	}
	return peerJSON[T](g, req, maxBytes, emptyOn404)
}

// peerJSON sends req and decodes at most maxBytes of the 200 answer's JSON
// body into a T. ok=false means the peer could not answer: down, erroring or
// an undecodable payload. With emptyOn404 a clean 404 ("nothing here", e.g.
// a disabled store) is ok=true with the zero T.
func peerJSON[T any](g *Gateway, req *http.Request, maxBytes int64, emptyOn404 bool) (T, bool) {
	var v T
	resp, err := g.client.Do(req)
	if err != nil {
		return v, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return v, emptyOn404 && resp.StatusCode == http.StatusNotFound
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes))
	if err != nil {
		return v, false
	}
	if err := json.Unmarshal(body, &v); err != nil {
		g.cfg.Logger.Warn("cluster: bad peer payload", "peer", req.URL.Host, "path", req.URL.Path, "error", err)
		return v, false
	}
	return v, true
}

// memberAnswer is one ring member's part of a fleet fan-out.
type memberAnswer[T any] struct {
	node string
	val  T
	ok   bool // false: the member could not answer
}

// fanOut gathers one answer per ring member within timeout: this node's own
// answer (local) in slot 0, then every remote peer in ring order, fetched
// concurrently.
func fanOut[T any](parent context.Context, g *Gateway, timeout time.Duration, local T,
	fetch func(ctx context.Context, peer string) (T, bool)) []memberAnswer[T] {
	ctx, cancel := context.WithTimeout(parent, timeout)
	defer cancel()
	answers := make([]memberAnswer[T], 1+len(g.remotePeers))
	answers[0] = memberAnswer[T]{node: g.cfg.Self, val: local, ok: true}
	var wg sync.WaitGroup
	for i, peer := range g.remotePeers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ok := fetch(ctx, peer)
			answers[1+i] = memberAnswer[T]{node: peer, val: v, ok: ok}
		}()
	}
	wg.Wait()
	return answers
}
