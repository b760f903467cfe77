package cluster

import (
	"context"
	"net/http"
	"time"

	"repro/internal/modelio"
)

// maxSelfResponseBytes caps one member's self-report payload; the curve is
// downsampled to at most 64 points, so 1 MiB is far past anything legal.
const maxSelfResponseBytes = 1 << 20

// handleSelf serves GET /cluster/v1/self: every ring member's self-model
// (the local server answers directly) aggregated into a fleet headroom view
// — summed in-flight, max-safe concurrency and headroom over the nodes whose
// models are ready, plus the advisory shed signal if any node raises it.
func (g *Gateway) handleSelf(w http.ResponseWriter, r *http.Request) {
	if !g.trustedHop(r) {
		g.local.WriteError(w, http.StatusForbidden, "cluster secret required")
		return
	}
	start := time.Now()
	local := g.local.SelfReport()
	answers := fanOut(r.Context(), g, fleetFanoutTimeout, &local, g.fetchSelf)

	out := modelio.ClusterSelfResponse{Self: g.cfg.Self}
	for _, res := range answers {
		if !res.ok {
			out.Missing = append(out.Missing, res.node)
			out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{
				Member: res.node, Error: "unreachable",
			})
			continue
		}
		res.val.Node = res.node
		out.Nodes = append(out.Nodes, modelio.ClusterSelfNode{Member: res.node, Self: res.val})
		out.FleetInFlight += res.val.InFlight
		if adm := res.val.Admission; adm != nil {
			out.FleetShed += adm.Shed
			out.FleetRedirected += adm.Redirected
			out.FleetCoalesced += adm.Coalesced
		}
		if res.val.Ready {
			out.ReadyNodes++
			out.FleetMaxSafe += res.val.MaxSafeN
			out.FleetHeadroom += res.val.Headroom
			if res.val.ShedAdvised {
				out.ShedAdvised = true
			}
		}
	}
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	g.local.WriteJSON(w, http.StatusOK, out)
}

// fetchSelf asks one peer for its self-report. ok=false means the peer could
// not answer (down, erroring, or an undecodable payload).
func (g *Gateway) fetchSelf(ctx context.Context, peer string) (*modelio.SelfResponse, bool) {
	self, ok := fleetGet[modelio.SelfResponse](ctx, g, peer, "/v1/self", maxSelfResponseBytes, false)
	return &self, ok
}
