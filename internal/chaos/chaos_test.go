package chaos

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestPlanParseAndValidate drives the schema checks: every malformed plan
// must be rejected with an error naming the offending fault, and a
// well-formed plan of every type must parse.
func TestPlanParseAndValidate(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string // substring; empty means the plan must parse
	}{
		{"AllTypes", `{"faults":[
			{"type":"drop","edge":{"from":0,"to":1},"at":3},
			{"type":"delay","edge":{"from":1,"to":0},"at":0,"count":2,"ms":10},
			{"type":"dup","edge":{"from":0,"to":1},"at":5},
			{"type":"reorder","edge":{"from":0,"to":1},"at":7},
			{"type":"corrupt","prob":0.01},
			{"type":"killconn","edge":{"from":2,"to":3},"at":9},
			{"type":"partition","edge":{"from":0,"to":1},"at":4,"ms":100},
			{"type":"stall","rank":2,"at":1,"ms":25}]}`, ""},
		{"BadJSON", `{"faults":[`, "parsing fault plan"},
		{"Empty", `{"faults":[]}`, "no faults"},
		{"UnknownType", `{"faults":[{"type":"scramble","edge":{"from":0,"to":1}}]}`, `unknown type "scramble"`},
		{"EdgelessDeterministic", `{"faults":[{"type":"drop","at":3}]}`, "needs an edge"},
		{"DelayWithoutMs", `{"faults":[{"type":"delay","edge":{"from":0,"to":1}}]}`, "needs ms > 0"},
		{"StallWithoutMs", `{"faults":[{"type":"stall","rank":1}]}`, "needs ms > 0"},
		{"NegativeRank", `{"faults":[{"type":"stall","rank":-1,"ms":5}]}`, "needs a rank"},
		{"NegativeAt", `{"faults":[{"type":"drop","edge":{"from":0,"to":1},"at":-2}]}`, "non-negative"},
		{"ProbOutOfRange", `{"faults":[{"type":"drop","edge":{"from":0,"to":1},"prob":1.5}]}`, "outside [0, 1]"},
		{"NegativeEdge", `{"faults":[{"type":"drop","edge":{"from":-1,"to":1},"at":0}]}`, "must be non-negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := Parse([]byte(c.json))
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				if len(p.Faults) == 0 {
					t.Fatal("parsed plan lost its faults")
				}
				return
			}
			if err == nil {
				t.Fatalf("malformed plan accepted: %s", c.json)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not name the problem %q", err, c.wantErr)
			}
		})
	}
}

// The fault plans the CI chaos job writes (plan-wire, plan-seam, plan-drop),
// verbatim: FuzzChaosParse's seed corpus.
var ciPlans = []string{
	`{"faults":[
		{"type":"drop",     "edge":{"from":0,"to":1}, "at":4, "count":2},
		{"type":"corrupt",  "edge":{"from":2,"to":3}, "at":6},
		{"type":"dup",      "edge":{"from":1,"to":0}, "at":3},
		{"type":"reorder",  "edge":{"from":3,"to":2}, "at":8},
		{"type":"killconn", "edge":{"from":0,"to":2}, "at":10},
		{"type":"partition","edge":{"from":1,"to":3}, "at":5, "ms":400},
		{"type":"delay",    "edge":{"from":2,"to":0}, "at":7, "ms":50},
		{"type":"stall",    "rank":3, "at":12, "ms":60}
	]}`,
	`{"faults":[
		{"type":"delay","edge":{"from":0,"to":1},"at":3,"count":2,"ms":40},
		{"type":"delay","edge":{"from":3,"to":2},"at":9,"ms":60},
		{"type":"stall","rank":2,"at":5,"ms":50},
		{"type":"stall","rank":1,"at":11,"ms":40}
	]}`,
	`{"faults":[{"type":"drop","edge":{"from":0,"to":1},"at":5}]}`,
}

// FuzzChaosParse feeds arbitrary bytes to the fault-plan parser — what
// stencilrun -chaos reads from a file and a placed worker from its request.
// It must never panic, and a plan it accepts re-marshals to a document that
// parses back to the same plan (so a plan survives the trip from the launch
// parent to its rank processes).
func FuzzChaosParse(f *testing.F) {
	for _, doc := range ciPlans {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"faults":[{"type":"corrupt","prob":0.01},{"type":"stall","rank":0,"ms":1,"prob":1}]}`))
	f.Add([]byte(`{"faults":[{"type":"drop","at":3}]}`))
	f.Add([]byte(`{"faults":[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			if p != nil {
				t.Fatalf("a rejected plan was returned anyway: %+v", p)
			}
			return
		}
		out, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("an accepted plan does not marshal: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("re-marshalled plan %s is rejected: %v", out, err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, back)
		}
	})
}

// TestPlanSplit checks the fault-to-seam routing for both backends: wire
// faults go below the TCP transport, scheduling faults stay at the seam,
// and a wire-only fault on the channel backend is a configuration error.
func TestPlanSplit(t *testing.T) {
	edge := &Edge{From: 0, To: 1}
	p := &Plan{Faults: []Fault{
		{Type: Drop, Edge: edge, At: 1},
		{Type: Delay, Edge: edge, Ms: 5},
		{Type: Stall, Rank: 0, Ms: 5},
		{Type: Corrupt, Edge: edge, At: 2},
	}}

	seam, conn, err := p.Split(true)
	if err != nil {
		t.Fatalf("tcp split failed: %v", err)
	}
	if len(conn) != 2 || conn[0].Type != Drop || conn[1].Type != Corrupt {
		t.Fatalf("tcp split routed %v to the wire, want [drop corrupt]", conn)
	}
	if len(seam) != 2 || seam[0].Type != Delay || seam[1].Type != Stall {
		t.Fatalf("tcp split routed %v to the seam, want [delay stall]", seam)
	}

	if _, _, err := p.Split(false); err == nil || !strings.Contains(err.Error(), "needs a wire-level transport") {
		t.Fatalf("channel split accepted a corrupt fault: %v", err)
	}

	chanOK := &Plan{Faults: []Fault{{Type: Drop, Edge: edge, At: 1}, {Type: Partition, Edge: edge, At: 2}}}
	seam, conn, err = chanOK.Split(false)
	if err != nil || len(conn) != 0 || len(seam) != 2 {
		t.Fatalf("channel split of drop+partition: seam=%v conn=%v err=%v, want both at the seam", seam, conn, err)
	}
}

// TestInjectorDeterminism proves the reproducibility contract: two
// injectors built from the same faults and seed make identical firing
// decisions on every edge, and a different seed diverges (in
// probabilistic mode, where the RNG decides).
func TestInjectorDeterminism(t *testing.T) {
	faults := []Fault{{Type: Drop, Prob: 0.3}}
	pattern := func(seed int64) []bool {
		in := NewInjector(faults, seed)
		var out []bool
		for _, e := range []struct{ from, to int }{{0, 1}, {1, 0}, {2, 3}} {
			st := in.edge(e.from, e.to)
			for i := int64(0); i < 200; i++ {
				out = append(out, st.fires(faults[0], i))
			}
		}
		return out
	}

	a, b := pattern(99), pattern(99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	c := pattern(100)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical firing patterns")
	}
}

// TestInjectorWindow checks the deterministic At/Count firing window and
// that per-edge counters are independent.
func TestInjectorWindow(t *testing.T) {
	in := NewInjector([]Fault{{Type: Drop, Edge: &Edge{From: 0, To: 1}, At: 2, Count: 3}}, 5)
	st := in.edge(0, 1)
	for i := int64(0); i < 8; i++ {
		want := i >= 2 && i < 5
		if got := st.fires(in.faults[0], i); got != want {
			t.Fatalf("index %d: fires=%v, want %v", i, got, want)
		}
	}
	if other := in.edge(1, 0); len(other.faults) != 0 {
		t.Fatalf("reverse edge inherited %d faults, want none", len(other.faults))
	}
	if again := in.edge(0, 1); again != st {
		t.Fatal("edge state not stable across lookups")
	}
}
