package serve

import (
	"fmt"
	"sort"
	"strings"
	"time"

	abft "stencilabft"
	"stencilabft/internal/chaos"
)

// The chaos surface of a rank process (stencilrun -chaos, or a placement's
// plan): a fault plan is split by the resolved backend — wire faults
// (corrupt/killconn) ride the tcp transport's connection hook, where each
// fails its edge as a classified fault; seam faults (drop/partition/delay/
// stall) wrap the transport itself. One harness is built per process and
// survives recovery epochs, so an edge's scripted fault indices keep
// counting across rebuilt connections and clusters.

// ChaosHarness owns one process's injectors; ApplyChaos installs them on
// the Spec the run builds from. A nil harness injects nothing.
type ChaosHarness struct {
	wire *chaos.Injector // conn-level faults (tcp only)
	seam *chaos.Injector // transport-level faults (any backend)

	// needTimeout is set when the seam plan suppresses messages outright
	// (drop/partition): a suppressed message must end as a classified
	// timeout fault, never a hang, so apply bounds the receives.
	needTimeout bool
}

// NewChaosHarness validates plan and splits it for the resolved transport
// (tcp or the channel backend); a nil plan yields a nil harness. Plans
// whose faults need a wire (frame corruption on the channel backend) are
// rejected here, before any socket opens.
func NewChaosHarness(plan *chaos.Plan, seed int64, tcp bool) (*ChaosHarness, error) {
	if plan == nil {
		return nil, nil
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	seamFaults, connFaults, err := plan.Split(tcp)
	if err != nil {
		return nil, err
	}
	h := &ChaosHarness{}
	if len(connFaults) > 0 {
		h.wire = chaos.NewInjector(connFaults, seed)
	}
	if len(seamFaults) > 0 {
		h.seam = chaos.NewInjector(seamFaults, seed)
		for _, f := range seamFaults {
			if f.Type == chaos.Drop || f.Type == chaos.Partition {
				h.needTimeout = true
			}
		}
	}
	return h, nil
}

// ApplyChaos installs h's injectors onto spec. Copies of the spec (one per
// cluster incarnation) share the injectors and their per-edge fault
// counters.
func ApplyChaos[T abft.Float](h *ChaosHarness, spec *abft.Spec[T]) {
	if h == nil {
		return
	}
	if h.wire != nil {
		spec.WrapConn = h.wire.WrapConn()
	}
	if h.seam != nil {
		in := h.seam
		spec.WrapTransport = func(tr abft.Transport[T], rx, ry int, ring bool) abft.Transport[T] {
			return chaos.Wrap(tr, in, rx, ry, ring)
		}
		if h.needTimeout && spec.RecvTimeout == 0 {
			spec.RecvTimeout = 10 * time.Second
		}
	}
}

// Summary renders the merged per-type injection tallies, e.g.
// "corrupt=1 drop=2 stall=4".
func (h *ChaosHarness) Summary() string {
	merged := map[string]int64{}
	for _, in := range []*chaos.Injector{h.wire, h.seam} {
		if in != nil {
			for k, v := range in.Stats() {
				merged[k] += v
			}
		}
	}
	if len(merged) == 0 {
		return "nothing (no fault in the plan fired)"
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, merged[k]))
	}
	return strings.Join(parts, " ")
}
