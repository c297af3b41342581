package stencilabft_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	abft "stencilabft"
)

// roundTrip marshals spec to its wire form, parses it back, and returns the
// rebuilt spec, failing the test on any step.
func roundTrip[T abft.Float](t *testing.T, spec abft.Spec[T]) abft.Spec[T] {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	w, err := abft.ParseWireSpec(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rebuilt, err := abft.SpecFromWire[T](w)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return rebuilt
}

// runBoth builds and runs the original and the round-tripped spec and
// demands bit-identical domains and identical fault counters.
func runBoth[T abft.Float](t *testing.T, spec abft.Spec[T], iters int) {
	t.Helper()
	rebuilt := roundTrip(t, spec)

	run := func(s abft.Spec[T]) (*abft.Grid[T], *abft.Grid3D[T], abft.Stats) {
		p, err := abft.Build(s)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		p.Run(iters)
		p.Finalize()
		return p.Grid(), p.Grid3D(), p.Stats()
	}
	g1, g31, st1 := run(spec)
	g2, g32, st2 := run(rebuilt)

	var d1, d2 []T
	switch {
	case g1 != nil && g2 != nil:
		d1, d2 = g1.Data(), g2.Data()
	case g31 != nil && g32 != nil:
		d1, d2 = g31.Data(), g32.Data()
	default:
		t.Fatalf("dimensionality diverged through the wire: %v/%v vs %v/%v", g1, g31, g2, g32)
	}
	if len(d1) != len(d2) {
		t.Fatalf("domain sizes diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("round-tripped run diverges at %d: %v != %v", i, d1[i], d2[i])
		}
	}
	var zero abft.Stats
	st1.Timing, st2.Timing = zero.Timing, zero.Timing
	if st1 != st2 {
		t.Fatalf("round-tripped stats diverge:\n  direct %+v\n  wire   %+v", st1, st2)
	}
}

// TestWireSpecRoundTripMatrix is the acceptance pin: across all five
// boundary conditions and both 2-D rank-grid spellings (RanksX x RanksY and
// the Ranks row-band shorthand), a clustered Spec survives Marshal → Parse →
// Build bit-identically.
func TestWireSpecRoundTripMatrix(t *testing.T) {
	bcs := []abft.Boundary{abft.Clamp, abft.Periodic, abft.Mirror, abft.Constant, abft.Zero}
	for _, bc := range bcs {
		for _, topo := range []string{"grid", "bands"} {
			bc, topo := bc, topo
			t.Run(bc.String()+"/"+topo, func(t *testing.T) {
				t.Parallel()
				init := abft.New[float32](24, 18)
				init.FillFunc(func(x, y int) float32 { return 100 + float32((x*13+y*7)%17) })
				spec := abft.Spec[float32]{
					Scheme:     abft.Online,
					Deployment: abft.Clustered,
					Op2D:       &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: bc, BCValue: 7},
					Init:       init,
					Inject:     abft.NewPlan(abft.Injection{Iteration: 3, X: 11, Y: 9, Bit: 29}),
				}
				if topo == "grid" {
					spec.RanksX, spec.RanksY = 2, 2
				} else {
					spec.Ranks = 3
				}
				runBoth(t, spec, 6)
			})
		}
	}
}

// TestWireSpecRoundTripLocalSchemes covers the local deployments (none,
// online, offline+cone, blocked) and the float64 element type.
func TestWireSpecRoundTripLocalSchemes(t *testing.T) {
	init := abft.New[float64](32, 32)
	init.FillFunc(func(x, y int) float64 { return 50 + float64((x*5+y*3)%13) })
	op := func() *abft.Op2D[float64] {
		return &abft.Op2D[float64]{St: abft.Advect2D[float64](0.3, 0.2), BC: abft.Clamp}
	}
	for _, spec := range []abft.Spec[float64]{
		{Scheme: abft.None, Op2D: op(), Init: init},
		{Scheme: abft.Online, Op2D: op(), Init: init,
			Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
			Inject:   abft.NewPlan(abft.Injection{Iteration: 2, X: 8, Y: 9, Bit: 55})},
		{Scheme: abft.Offline, Op2D: op(), Init: init, Period: 4, Recovery: abft.ConeRecovery,
			Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1},
			Inject:   abft.NewPlan(abft.Injection{Iteration: 5, X: 12, Y: 20, Bit: 55})},
		{Scheme: abft.Blocked, Op2D: op(), Init: init, BlockX: 16, BlockY: 16,
			Detector: abft.Detector[float64]{Epsilon: 1e-9, AbsFloor: 1}},
	} {
		runBoth(t, spec, 8)
	}
}

// TestWireSpecRoundTrip3D pins the 3-D path: a star7 offline run survives
// the wire bit-identically, layers topology included.
func TestWireSpecRoundTrip3D(t *testing.T) {
	init := abft.New3D[float32](10, 10, 4)
	init.FillFunc(func(x, y, z int) float32 { return 100 + float32((x+2*y+3*z)%11) })
	runBoth(t, abft.Spec[float32]{
		Scheme: abft.Offline,
		Op3D:   &abft.Op3D[float32]{St: abft.SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15), BC: abft.Mirror},
		Init3D: init,
		Period: 4,
		Inject: abft.NewPlan(abft.Injection{Iteration: 3, X: 5, Y: 6, Z: 2, Bit: 28}),
	}, 8)

	runBoth(t, abft.Spec[float32]{
		Scheme:     abft.Online,
		Deployment: abft.Clustered,
		Op3D:       &abft.Op3D[float32]{St: abft.SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15), BC: abft.Clamp},
		Init3D:     init,
		Ranks:      2,
	}, 6)
}

// TestWireSpec3DConeRecovery: "recovery":"cone" reaches a 3-D offline run —
// one interior flip in the paper's HotSpot3D shape is repaired by its light
// cone, not by a rollback.
func TestWireSpec3DConeRecovery(t *testing.T) {
	w, err := abft.ParseWireSpec([]byte(`{"scheme":"offline","recovery":"cone","period":8,
		"stencil":{"name":"star7"},"grid":{"nx":48,"ny":48,"nz":8,"generator":"uniform","seed":5},
		"inject":[{"iteration":12,"x":24,"y":23,"z":4,"bit":29}]}`))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := abft.SpecFromWire[float32](w)
	if err != nil {
		t.Fatal(err)
	}
	p, err := abft.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(24)
	p.Finalize()
	if st := p.Stats(); st.Detections != 1 || st.ConeRecoveries != 1 || st.Rollbacks != 0 {
		t.Fatalf("3-D cone spec: %+v", st)
	}
}

// TestWireSpecNamedStencils checks each registry entry resolves to exactly
// the stencil its constructor builds.
func TestWireSpecNamedStencils(t *testing.T) {
	cases := []struct {
		wire string
		want *abft.Stencil[float32]
	}{
		{`{"name":"laplace5","args":[0.25]}`, abft.Laplace5[float32](0.25)},
		{`{"name":"laplace5"}`, abft.Laplace5[float32](0.2)},
		{`{"name":"jacobi4"}`, abft.Jacobi4[float32]()},
		{`{"name":"box9"}`, abft.BoxBlur[float32]()},
		{`{"name":"five-point","args":[0.6,0.1,0.1,0.1,0.1]}`, abft.FivePoint[float32](0.6, 0.1, 0.1, 0.1, 0.1)},
		{`{"name":"advect2d","args":[0.4,0.1]}`, abft.Advect2D[float32](0.4, 0.1)},
		{`{"name":"star7"}`, abft.SevenPoint3D[float32](0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15)},
	}
	for _, c := range cases {
		doc := []byte(`{"stencil":` + c.wire + `,"grid":{"nx":8,"ny":8,"generator":"constant","value":1}}`)
		if c.want.Is3D() {
			doc = []byte(`{"stencil":` + c.wire + `,"grid":{"nx":8,"ny":8,"nz":4,"generator":"constant","value":1}}`)
		}
		w, err := abft.ParseWireSpec(doc)
		if err != nil {
			t.Fatalf("%s: parse: %v", c.wire, err)
		}
		spec, err := abft.SpecFromWire[float32](w)
		if err != nil {
			t.Fatalf("%s: resolve: %v", c.wire, err)
		}
		var got *abft.Stencil[float32]
		if spec.Op2D != nil {
			got = spec.Op2D.St
		} else {
			got = spec.Op3D.St
		}
		if len(got.Points) != len(c.want.Points) {
			t.Fatalf("%s: %d points, want %d", c.wire, len(got.Points), len(c.want.Points))
		}
		for i, p := range got.Points {
			if p != c.want.Points[i] {
				t.Fatalf("%s: point %d is %+v, want %+v", c.wire, i, p, c.want.Points[i])
			}
		}
	}
}

// TestWireSpecGenerators pins the deterministic generators: same document,
// same bits; distinct seeds, distinct grids.
func TestWireSpecGenerators(t *testing.T) {
	grid := func(g string) *abft.Grid[float32] {
		doc := []byte(`{"stencil":{"name":"laplace5"},"grid":` + g + `}`)
		w, err := abft.ParseWireSpec(doc)
		if err != nil {
			t.Fatalf("parse %s: %v", g, err)
		}
		spec, err := abft.SpecFromWire[float32](w)
		if err != nil {
			t.Fatalf("resolve %s: %v", g, err)
		}
		return spec.Init
	}
	a := grid(`{"nx":16,"ny":16,"generator":"uniform","seed":7}`)
	b := grid(`{"nx":16,"ny":16,"generator":"uniform","seed":7}`)
	c := grid(`{"nx":16,"ny":16,"generator":"uniform","seed":8}`)
	same, diff := true, false
	for i := range a.Data() {
		same = same && a.Data()[i] == b.Data()[i]
		diff = diff || a.Data()[i] != c.Data()[i]
	}
	if !same {
		t.Fatal("uniform generator is not deterministic for a fixed seed")
	}
	if !diff {
		t.Fatal("uniform generator ignores the seed")
	}
	for _, v := range a.Data() {
		if v < 100 || v > 150 {
			t.Fatalf("uniform value %v outside [100,150]", v)
		}
	}
	k := grid(`{"nx":4,"ny":4,"generator":"constant","value":3.5}`)
	for _, v := range k.Data() {
		if v != 3.5 {
			t.Fatalf("constant generator produced %v", v)
		}
	}
	r := grid(`{"nx":8,"ny":8,"generator":"ramp"}`)
	if r.At(0, 0) == r.At(1, 0) {
		t.Fatal("ramp generator is flat")
	}
}

// TestWireKeepsGeneratorReference: a Spec resolved from a generator-backed
// document marshals back to the resolved reference — small however large the
// domain, one document for every spelling, bit-identical when rebuilt — and
// falls back to inline values the moment the grid no longer holds exactly
// the generator's bits.
func TestWireKeepsGeneratorReference(t *testing.T) {
	resolve := func(grid string) abft.Spec[float32] {
		t.Helper()
		w, err := abft.ParseWireSpec([]byte(`{"scheme":"online","stencil":{"name":"laplace5"},"grid":` + grid + `}`))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := abft.SpecFromWire[float32](w)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	marshal := func(spec abft.Spec[float32]) string {
		t.Helper()
		doc, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		return string(doc)
	}

	for _, grid := range []string{
		`{"nx":96,"ny":64,"generator":"uniform","seed":7}`,
		`{"nx":12,"ny":10,"nz":4,"generator":"ramp"}`,
		`{"nx":16,"ny":16,"generator":"constant","value":0.1}`,
	} {
		spec := resolve(grid)
		doc := marshal(spec)
		if len(doc) > 1024 || !strings.Contains(doc, `"generator"`) || strings.Contains(doc, `"data"`) {
			t.Fatalf("%s marshalled to %d bytes without keeping the reference: %.200s", grid, len(doc), doc)
		}
		if again := marshal(roundTrip(t, spec)); again != doc {
			t.Fatalf("the reference is not a fixed point:\n%s\n%s", doc, again)
		}
		runBoth(t, spec, 5)
	}

	// Spellings: parameters the generator ignores, defaults written out, and
	// a float64 value that rounds to the same float32.
	if a, b := marshal(resolve(`{"nx":8,"ny":8,"generator":"uniform","seed":3}`)),
		marshal(resolve(`{"nx":8,"ny":8,"nz":0,"generator":"uniform","seed":3,"value":9}`)); a != b {
		t.Fatalf("uniform spellings differ:\n%s\n%s", a, b)
	}
	if a, b := marshal(resolve(`{"nx":8,"ny":8,"generator":"constant","value":0.1}`)),
		marshal(resolve(`{"nx":8,"ny":8,"generator":"constant","value":0.10000000149011612,"seed":5}`)); a != b {
		t.Fatalf("constant spellings differ:\n%s\n%s", a, b)
	}

	// A written cell, or a replaced grid, is no longer what the generator
	// produces: the values travel inline.
	touched := resolve(`{"nx":8,"ny":8,"generator":"uniform","seed":3}`)
	touched.Init.Set(2, 2, 1e6)
	if doc := marshal(touched); strings.Contains(doc, `"generator"`) || !strings.Contains(doc, `"data":[`) {
		t.Fatalf("a modified generated grid still marshals as its generator: %.200s", doc)
	}
	runBoth(t, touched, 3)
	replaced := resolve(`{"nx":8,"ny":8,"generator":"ramp"}`)
	replaced.Init = abft.New[float32](8, 6)
	if doc := marshal(replaced); strings.Contains(doc, `"generator"`) {
		t.Fatalf("a replaced grid still marshals as the old generator: %.200s", doc)
	}
}

// TestSpecMarshalRefusesProcessLocal pins the actionable-refusal contract:
// each process-local knob fails Marshal with ErrNotSerializable and an error
// message naming the field.
func TestSpecMarshalRefusesProcessLocal(t *testing.T) {
	base := func() abft.Spec[float32] {
		init := abft.New[float32](8, 8)
		init.Fill(1)
		return abft.Spec[float32]{
			Op2D: &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp},
			Init: init,
		}
	}
	cases := []struct {
		name string
		mut  func(*abft.Spec[float32])
	}{
		{"Pool", func(s *abft.Spec[float32]) { s.Pool = abft.NewPool() }},
		{"InjectSource", func(s *abft.Spec[float32]) {
			s.InjectSource = abft.NewInjector[float32](abft.NewPlan())
		}},
		{"NewTransport", func(s *abft.Spec[float32]) {
			s.NewTransport = func(x, y int, ring bool) abft.Transport[float32] { return nil }
		}},
		{"WrapTransport", func(s *abft.Spec[float32]) {
			s.WrapTransport = func(tr abft.Transport[float32], x, y int, ring bool) abft.Transport[float32] { return tr }
		}},
		{"AfterStep", func(s *abft.Spec[float32]) { s.AfterStep = func(rank, iter int) {} }},
		{"Telemetry", func(s *abft.Spec[float32]) { s.Telemetry = abft.NewTelemetry(-1) }},
		{"Rendezvous", func(s *abft.Spec[float32]) { s.Rendezvous = "127.0.0.1:9999" }},
		{"RecvTimeout", func(s *abft.Spec[float32]) { s.RecvTimeout = 1 }},
	}
	for _, c := range cases {
		spec := base()
		c.mut(&spec)
		_, err := json.Marshal(spec)
		if err == nil {
			t.Fatalf("%s: marshal succeeded, want ErrNotSerializable", c.name)
		}
		if !errors.Is(err, abft.ErrNotSerializable) {
			t.Fatalf("%s: error %v is not ErrNotSerializable", c.name, err)
		}
		if !strings.Contains(err.Error(), c.name) {
			t.Fatalf("%s: error does not name the field: %v", c.name, err)
		}
		if errors.Is(err, abft.ErrInvalidSpec) {
			t.Fatalf("%s: ErrNotSerializable must not imply ErrInvalidSpec (the spec runs fine in-process)", c.name)
		}
	}
	// The refused specs really do build in-process.
	spec := base()
	spec.Pool = abft.NewPool()
	if _, err := abft.Build(spec); err != nil {
		t.Fatalf("process-local spec should still build in-process: %v", err)
	}
}

// malformedWireCase is one defective wire document and the typed sentinels
// its rejection must match.
type malformedWireCase struct {
	name string
	doc  string
	want []error
}

func malformedWireCases() []malformedWireCase {
	grid := `"grid":{"nx":8,"ny":8,"generator":"constant","value":1}`
	return []malformedWireCase{
		{"syntax", `{"stencil":`, []error{abft.ErrBadWireSpec}},
		{"unknown-field", `{"stencil":{"name":"laplace5"},"epsilonn":0.1,` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"trailing", `{"stencil":{"name":"laplace5"},` + grid + `} {}`, []error{abft.ErrBadWireSpec}},
		{"unknown-stencil", `{"stencil":{"name":"heptadiagonal"},` + grid + `}`, []error{abft.ErrUnknownStencil, abft.ErrBadWireSpec, abft.ErrInvalidSpec}},
		{"arg-count", `{"stencil":{"name":"laplace5","args":[0.2,0.3]},` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"no-stencil", `{` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"elem", `{"elem":"float16","stencil":{"name":"laplace5"},` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"elem-mismatch", `{"elem":"float64","stencil":{"name":"laplace5"},` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"upload", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"upload":"abc"}}`, []error{abft.ErrUnresolvedUpload, abft.ErrBadWireSpec}},
		{"two-sources", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"uniform","data":[1]}}`, []error{abft.ErrBadWireSpec}},
		{"no-source", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8}}`, []error{abft.ErrBadWireSpec}},
		{"negative-nz", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"nz":-4,"generator":"constant","value":1}}`, []error{abft.ErrBadWireSpec}},
		{"data-len", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"data":[1,2,3]}}`, []error{abft.ErrBadWireSpec}},
		{"generator", `{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"generator":"fractal"}}`, []error{abft.ErrUnknownGenerator, abft.ErrBadWireSpec}},
		{"bc", `{"stencil":{"name":"laplace5"},"bc":"open",` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"pair-policy", `{"stencil":{"name":"laplace5"},"pairPolicy":"random",` + grid + `}`, []error{abft.ErrBadWireSpec}},
		{"recovery", `{"stencil":{"name":"laplace5"},"recovery":"forward",` + grid + `}`, []error{abft.ErrBadWireSpec}},
	}
}

// TestParseWireSpecMalformed is the malformed-document table: every defect
// is rejected with the matching typed sentinel.
func TestParseWireSpecMalformed(t *testing.T) {
	resolve := func(doc string) error {
		w, err := abft.ParseWireSpec([]byte(doc))
		if err != nil {
			return err
		}
		_, err = abft.SpecFromWire[float32](w)
		return err
	}
	for _, c := range malformedWireCases() {
		err := resolve(c.doc)
		if err == nil {
			t.Fatalf("%s: accepted, want error", c.name)
		}
		for _, want := range c.want {
			if !errors.Is(err, want) {
				t.Fatalf("%s: error %v does not match %v", c.name, err, want)
			}
		}
	}
}

// FuzzParseWireSpec feeds arbitrary bytes to the wire-spec parser — what
// POST /v1/jobs and the worker protocol do with a request body. It must
// never panic; every rejection carries ErrBadWireSpec; what parses
// re-marshals to a document that parses to the same thing; and resolving a
// parsed document of small shape neither panics nor fails untyped, and
// canonicalises exactly as the built spec does.
func FuzzParseWireSpec(f *testing.F) {
	for _, c := range malformedWireCases() {
		f.Add([]byte(c.doc))
	}
	f.Add([]byte(`{"scheme":"online","stencil":{"name":"laplace5","args":[0.2]},"grid":{"nx":8,"ny":6,"generator":"uniform","seed":3}}`))
	f.Add([]byte(`{"elem":"float64","scheme":"online","deployment":"cluster","ranks":2,"bc":"constant","bcValue":1.5,` +
		`"stencil":{"points":[{"dx":0,"dy":0,"w":0.5},{"dx":0,"dy":0,"dz":1,"w":0.25},{"dx":0,"dy":0,"dz":-1,"w":0.25}]},` +
		`"grid":{"nx":4,"ny":4,"nz":6,"generator":"ramp"},"inject":[{"iteration":2,"x":1,"y":1,"z":3,"bit":30}]}`))
	f.Add([]byte(`{"stencil":{"name":"laplace5"},"grid":{"nx":2,"ny":2,"data":[1,2,3,4]},"cfield":{"nx":2,"ny":2,"data":[0,0,0,0]}}`))

	small := func(g *abft.WireGrid) bool {
		return g == nil || (g.Nx <= 16 && g.Ny <= 16 && g.Nz <= 16)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := abft.ParseWireSpec(data)
		if err != nil {
			if !errors.Is(err, abft.ErrBadWireSpec) {
				t.Fatalf("rejection is not an ErrBadWireSpec: %v", err)
			}
			return
		}
		out, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("a parsed document does not marshal: %v", err)
		}
		back, err := abft.ParseWireSpec(out)
		if err != nil {
			t.Fatalf("re-marshalled document %s is rejected: %v", out, err)
		}
		if again, _ := json.Marshal(back); !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the document:\n%s\n%s", out, again)
		}
		if small(w.Grid) && small(w.CField) {
			if _, err := abft.SpecFromWire[float32](w); err != nil && !errors.Is(err, abft.ErrBadWireSpec) {
				t.Fatalf("float32 resolution failed untyped: %v", err)
			}
			if _, err := abft.SpecFromWire[float64](w); err != nil && !errors.Is(err, abft.ErrBadWireSpec) {
				t.Fatalf("float64 resolution failed untyped: %v", err)
			}
			sameCanonical(t, data)
		}
	})
}

// TestTypedSentinels pins the errors.Is surface of Build itself, the
// 400-vs-500 contract the HTTP layer relies on.
func TestTypedSentinels(t *testing.T) {
	init := abft.New[float32](16, 16)
	init.Fill(1)
	op := &abft.Op2D[float32]{St: abft.Laplace5[float32](0.2), BC: abft.Clamp}

	_, err := abft.Build(abft.Spec[float32]{Scheme: "quantum", Op2D: op, Init: init})
	if !errors.Is(err, abft.ErrUnknownScheme) || !errors.Is(err, abft.ErrInvalidSpec) {
		t.Fatalf("unknown scheme: %v", err)
	}
	_, err = abft.Build(abft.Spec[float32]{Deployment: "mesh", Op2D: op, Init: init})
	if !errors.Is(err, abft.ErrUnknownDeployment) || !errors.Is(err, abft.ErrInvalidSpec) {
		t.Fatalf("unknown deployment: %v", err)
	}
	_, err = abft.Build(abft.Spec[float32]{
		Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init,
		Ranks: 2, Transport: "smoke-signals",
	})
	if !errors.Is(err, abft.ErrUnknownTransport) || !errors.Is(err, abft.ErrInvalidSpec) {
		t.Fatalf("unknown transport: %v", err)
	}
	_, err = abft.Build(abft.Spec[float32]{
		Scheme: abft.Offline, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 2,
	})
	if !errors.Is(err, abft.ErrInvalidSpec) {
		t.Fatalf("offline cluster: %v", err)
	}
	if errors.Is(err, abft.ErrUnknownScheme) {
		t.Fatalf("offline cluster must not classify as unknown scheme: %v", err)
	}
	// Thin tiles surface dist's sentinel through Build.
	_, err = abft.Build(abft.Spec[float32]{
		Scheme: abft.Online, Deployment: abft.Clustered, Op2D: op, Init: init, Ranks: 16,
	})
	if !errors.Is(err, abft.ErrThinTile) {
		t.Fatalf("thin tile: %v", err)
	}
	// Operator validation carries the stencil package's sentinel.
	tiny := abft.New[float32](1, 8)
	tiny.Fill(1)
	_, err = abft.Build(abft.Spec[float32]{Scheme: abft.Online, Op2D: op, Init: tiny})
	if !errors.Is(err, abft.ErrInvalidOp) {
		t.Fatalf("invalid op: %v", err)
	}
}

// canonicalReference is the canonical document by way of a built Spec:
// SpecFromWire for the document's elem, Validate, json.Marshal — the path
// WireSpec.Canonical must equal without building a generator grid.
func canonicalReference(w *abft.WireSpec) ([]byte, error) {
	resolve := func() (json.Marshaler, error) {
		if w.Elem == "float64" {
			spec, err := abft.SpecFromWire[float64](w)
			if err == nil {
				err = spec.Validate()
			}
			return spec, err
		}
		spec, err := abft.SpecFromWire[float32](w)
		if err == nil {
			err = spec.Validate()
		}
		return spec, err
	}
	spec, err := resolve()
	if err != nil {
		return nil, err
	}
	return json.Marshal(spec)
}

// wireSentinels is every typed class a wire or validation error can carry.
var wireSentinels = []error{
	abft.ErrBadWireSpec, abft.ErrInvalidSpec, abft.ErrUnknownStencil, abft.ErrUnknownGenerator,
	abft.ErrUnresolvedUpload, abft.ErrUnknownScheme, abft.ErrUnknownDeployment, abft.ErrNotSerializable,
}

// sameCanonical fails unless Canonical and the reference agree on doc: the
// same bytes, or the same error message and typed classes.
func sameCanonical(t testing.TB, doc []byte) (accepted bool) {
	t.Helper()
	w1, err1 := abft.ParseWireSpec(doc)
	w2, err2 := abft.ParseWireSpec(doc)
	if err1 != nil || err2 != nil {
		t.Fatalf("corpus document does not parse: %v\n%s", err1, doc)
	}
	got, gotErr := w1.Canonical()
	want, wantErr := canonicalReference(w2)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s\nCanonical: %v\nreference: %v", doc, gotErr, wantErr)
	}
	for _, s := range wireSentinels {
		if errors.Is(gotErr, s) != errors.Is(wantErr, s) {
			t.Fatalf("%s\nCanonical's error %v and the reference's %v differ in errors.Is(%v)", doc, gotErr, wantErr, s)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s\nCanonical: %s\nreference: %s", doc, got, want)
	}
	return gotErr == nil
}

// wireCorpus returns n seeded wire documents over uniform, constant and ramp
// generators, inline grids, 2-D and 3-D, both element types, registry and
// inline stencils, constant fields, injections, and the scheme and
// deployment knobs — some of them combinations Validate refuses.
func wireCorpus(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	var docs [][]byte
	for range n {
		w := map[string]any{}
		if e := pick("", "float32", "float64"); e != "" {
			w["elem"] = e
		}
		is3D := rng.Intn(3) == 0
		nx, ny, nz := 4+rng.Intn(9), 4+rng.Intn(9), 0
		if is3D {
			nz = 3 + rng.Intn(4)
		}
		cells := nx * ny * max(nz, 1)
		inline := func() []float64 {
			d := make([]float64, cells)
			for i := range d {
				d[i] = 100 + rng.NormFloat64()*7
			}
			return d
		}
		grid := map[string]any{"nx": nx, "ny": ny}
		if is3D {
			grid["nz"] = nz
		}
		switch pick("uniform", "constant", "ramp", "inline") {
		case "uniform":
			grid["generator"], grid["seed"] = "uniform", rng.Int63n(1<<40)-1<<39
			if rng.Intn(3) == 0 {
				grid["value"] = 2.5 // ignored by uniform
			}
		case "constant":
			grid["generator"], grid["value"] = "constant", rng.NormFloat64()*1e3
			if rng.Intn(3) == 0 {
				grid["seed"] = 9 // ignored by constant
			}
		case "ramp":
			grid["generator"] = "ramp"
		case "inline":
			grid["data"] = inline()
		}
		w["grid"] = grid
		if rng.Intn(4) == 0 {
			cf := map[string]any{"nx": nx, "ny": ny, "data": inline()}
			if is3D {
				cf["nz"] = nz
			}
			w["cfield"] = cf
		}
		switch {
		case rng.Intn(3) == 0:
			pts := []map[string]any{{"dx": 0, "dy": 0, "w": 0.5}}
			for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
				if d[2] != 0 && !is3D {
					continue
				}
				pts = append(pts, map[string]any{"dx": d[0], "dy": d[1], "dz": d[2], "w": rng.Float64() / 10})
			}
			w["stencil"] = map[string]any{"name": pick("", "mine"), "points": pts}
		case is3D:
			w["stencil"] = map[string]any{"name": "star7"}
		default:
			st := map[string]any{"name": pick("laplace5", "jacobi4", "box9", "five-point", "advect2d")}
			if st["name"] == "laplace5" && rng.Intn(2) == 0 {
				st["args"] = []float64{rng.Float64() / 4}
			}
			w["stencil"] = st
		}
		w["bc"] = pick("", "clamp", "periodic", "mirror", "constant", "zero")
		if w["bc"] == "constant" {
			w["bcValue"] = rng.Float64() * 10
		}
		switch pick("none", "online", "offline", "blocked", "cluster") {
		case "none":
			w["scheme"] = "none"
		case "online":
			w["scheme"] = "online"
			if rng.Intn(3) == 0 {
				w["paperExactCorrection"] = true
			}
		case "offline":
			w["scheme"], w["period"] = "offline", 1+rng.Intn(4)
			w["recovery"] = pick("", "rollback", "cone")
		case "blocked":
			w["scheme"], w["blockX"], w["blockY"] = "blocked", 1+rng.Intn(4), 1+rng.Intn(4)
		case "cluster":
			w["scheme"], w["deployment"] = "online", "cluster"
			if is3D || rng.Intn(2) == 0 {
				w["ranks"] = 1 + rng.Intn(3)
			} else {
				w["ranksX"], w["ranksY"] = 1+rng.Intn(2), 1+rng.Intn(2)
			}
		}
		if rng.Intn(3) == 0 {
			w["epsilon"], w["absFloor"] = rng.Float64()*1e-4, rng.Float64()
			w["pairPolicy"] = pick("residual", "index")
		}
		if rng.Intn(3) == 0 {
			inj := map[string]any{"iteration": 1 + rng.Intn(3), "x": rng.Intn(nx), "y": rng.Intn(ny), "bit": rng.Intn(31)}
			if is3D {
				inj["z"] = rng.Intn(nz)
			}
			w["inject"] = []any{inj}
		}
		doc, err := json.Marshal(w)
		if err != nil {
			panic(err)
		}
		docs = append(docs, doc)
	}
	return docs
}

// TestCanonicalMatchesSpecFromWire: over a seeded corpus, Canonical's bytes
// equal json.Marshal of the validated SpecFromWire spec byte for byte (so
// cache keys are unchanged), and every document the built path refuses it
// refuses with the same message and typed classes.
func TestCanonicalMatchesSpecFromWire(t *testing.T) {
	accepted, generated := 0, 0
	for _, doc := range wireCorpus(33, 600) {
		if sameCanonical(t, doc) {
			accepted++
			if bytes.Contains(doc, []byte(`"generator"`)) {
				generated++
			}
		}
	}
	for _, c := range malformedWireCases() {
		if _, err := abft.ParseWireSpec([]byte(c.doc)); err == nil {
			sameCanonical(t, []byte(c.doc))
		}
	}
	for _, doc := range []string{
		`{"elem":"float64","stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"nz":2,"generator":"ramp"},"cfield":{"nx":8,"ny":8,"data":[]}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":8,"nz":2,"generator":"ramp"},"cfield":{"nx":8,"ny":8,"generator":"ramp"}}`,
		`{"stencil":{"name":"laplace5"},"grid":{"nx":0,"ny":8,"generator":"uniform"}}`,
		`{"stencil":{"name":"laplace5"},"scheme":"blocked","blockX":2,"blockY":2,"grid":{"nx":8,"ny":8,"nz":2,"generator":"ramp"}}`,
		`{"stencil":{"name":"star7"},"scheme":"online","deployment":"cluster","ranksX":2,"ranksY":1,"grid":{"nx":8,"ny":8,"nz":4,"generator":"uniform"}}`,
		`{"stencil":{"name":"laplace5"},"scheme":"online","deployment":"cluster","ranks":2,"period":3,"grid":{"nx":8,"ny":8,"generator":"constant","value":1}}`,
		`{"stencil":{"name":"laplace5"},"deployment":"moon","grid":{"nx":8,"ny":8,"generator":"constant","value":1}}`,
		`{"stencil":{"name":"laplace5"},"scheme":"offline","grid":{"nx":8,"ny":8,"generator":"constant","value":1e300}}`,
	} {
		sameCanonical(t, []byte(doc))
	}
	if accepted < 150 || generated < 80 {
		t.Fatalf("the corpus exercised %d accepted documents, %d of them generated; widen it", accepted, generated)
	}
}

// TestCanonicalBuildsNoGrid: a 1024x1024 generator document canonicalises
// without allocating its domain — where the built path allocates it three
// times over (the generated values, the grid, and the regeneration check
// that lets Wire emit the reference).
func TestCanonicalBuildsNoGrid(t *testing.T) {
	doc := []byte(`{"scheme":"online","stencil":{"name":"laplace5"},"grid":{"nx":1024,"ny":1024,"generator":"uniform","seed":5}}`)
	allocated := func(f func(*abft.WireSpec) ([]byte, error)) ([]byte, uint64) {
		w, err := abft.ParseWireSpec(doc)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := f(w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return out, after.TotalAlloc - before.TotalAlloc
	}
	got, gotBytes := allocated((*abft.WireSpec).Canonical)
	want, refBytes := allocated(canonicalReference)
	t.Logf("canonicalising a 1024x1024 generator document: %d bytes allocated; through a built spec: %d", gotBytes, refBytes)
	if !bytes.Equal(got, want) {
		t.Fatalf("Canonical %s, reference %s", got, want)
	}
	if gotBytes > 64<<10 || refBytes < 8<<20 {
		t.Fatalf("Canonical allocated %d bytes (want under 64 KiB), the built path %d (want over 8 MiB)", gotBytes, refBytes)
	}
}
