package stencilabft

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
)

// WireSpec is the wire-serializable JSON form of Spec — the job description
// a service client POSTs. A Spec carries function pointers (the stencil's
// compiled operator, injection sources, transport factories) and process-local
// state (worker pools, socket endpoints, telemetry collectors); the wire
// form replaces each with data: stencils are named registry entries or
// inline point lists, initial grids are inline values, a generator name or
// an upload reference, and the process-local knobs are simply absent —
// Spec.MarshalJSON refuses them with an actionable error rather than
// dropping them silently.
//
// The contract, pinned by wirespec_test.go: for every serializable Spec,
// ParseWireSpec(json.Marshal(spec)) + SpecFromWire builds a protector whose
// run is bit-identical to building the original Spec directly. JSON numbers
// round-trip exactly (encoding/json emits the shortest representation that
// re-reads to the same float), so grid values and stencil weights survive
// the wire bit-for-bit for both element types.
//
// See API.md for the schema as the HTTP surface documents it.
type WireSpec struct {
	// Elem names the element type: "float32" (the default) or "float64".
	Elem       string `json:"elem,omitempty"`
	Scheme     string `json:"scheme,omitempty"`
	Deployment string `json:"deployment,omitempty"`

	// Stencil is the operator kernel: a registry name (with optional
	// args) or inline points.
	Stencil *WireStencil `json:"stencil"`
	// BC names the boundary condition: clamp (default), periodic, mirror,
	// constant or zero. BCValue is the ghost value under "constant".
	BC      string  `json:"bc,omitempty"`
	BCValue float64 `json:"bcValue,omitempty"`
	// CField is the operator's optional constant field C (Equation 1),
	// inline data only, shaped like the domain.
	CField *WireGrid `json:"cfield,omitempty"`

	// Grid is the initial domain.
	Grid *WireGrid `json:"grid"`

	// Epsilon and AbsFloor configure the detector; zero keeps the paper's
	// defaults (1e-5 with an absolute floor of 1).
	Epsilon  float64 `json:"epsilon,omitempty"`
	AbsFloor float64 `json:"absFloor,omitempty"`
	// PairPolicy selects multi-error pairing: "residual" (default) or
	// "index".
	PairPolicy string `json:"pairPolicy,omitempty"`
	Period     int    `json:"period,omitempty"`
	// Recovery selects the offline repair strategy: "rollback" (default)
	// or "cone".
	Recovery  string `json:"recovery,omitempty"`
	Ranks     int    `json:"ranks,omitempty"`
	RanksX    int    `json:"ranksX,omitempty"`
	RanksY    int    `json:"ranksY,omitempty"`
	HaloDepth int    `json:"haloDepth,omitempty"`
	BlockX    int    `json:"blockX,omitempty"`
	BlockY    int    `json:"blockY,omitempty"`

	// Inject schedules planned bit-flips, exactly Spec.Inject's Plan.
	Inject []WireInjection `json:"inject,omitempty"`

	DropBoundaryTerms    bool `json:"dropBoundaryTerms,omitempty"`
	PaperExactCorrection bool `json:"paperExactCorrection,omitempty"`
	ForceGeneric         bool `json:"forceGeneric,omitempty"`
}

// WireStencil is a stencil kernel on the wire: either a registry entry by
// name with optional numeric args, or an explicit inline point list. The
// registry (see WireStencilNames) covers the library's canonical kernels;
// inline points express arbitrary stencils exactly. Spec.MarshalJSON always
// emits inline points (with the name preserved) so the weights travel
// bit-exactly regardless of how the stencil was built.
type WireStencil struct {
	Name   string      `json:"name,omitempty"`
	Args   []float64   `json:"args,omitempty"`
	Points []WirePoint `json:"points,omitempty"`
}

// WirePoint is one weighted stencil offset on the wire.
type WirePoint struct {
	DX int     `json:"dx"`
	DY int     `json:"dy"`
	DZ int     `json:"dz,omitempty"`
	W  float64 `json:"w"`
}

// WireInjection is one planned bit-flip on the wire (see Injection).
type WireInjection struct {
	Iteration int `json:"iteration"`
	X         int `json:"x"`
	Y         int `json:"y"`
	Z         int `json:"z,omitempty"`
	Bit       int `json:"bit"`
}

// WireGrid describes a domain on the wire through exactly one source:
// inline row-major data, a named deterministic generator, or a reference to
// a previously uploaded grid (which the service resolves to inline data
// before anything builds). Nz > 0 declares a 3-D domain.
type WireGrid struct {
	Nx int `json:"nx"`
	Ny int `json:"ny"`
	Nz int `json:"nz,omitempty"`

	// Upload references a grid uploaded out of band (POST /v1/grids); it
	// must be resolved to inline Data before SpecFromWire runs.
	Upload string `json:"upload,omitempty"`
	// Generator names a deterministic initial-condition generator:
	// "uniform" (100 + 50·rand, seeded by Seed), "constant" (every point
	// Value) or "ramp" (a fixed spatial pattern).
	Generator string  `json:"generator,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Value     float64 `json:"value,omitempty"`
	// Data is the inline row-major domain (x fastest, then y, then z).
	Data []float64 `json:"data,omitempty"`
}

// WireStencilNames lists the stencil registry entries SpecFromWire resolves,
// sorted — what the HTTP surface reports for an unknown name.
func WireStencilNames() []string {
	names := []string{"advect2d", "box9", "five-point", "jacobi4", "laplace5", "star7"}
	sort.Strings(names)
	return names
}

// elemName returns the wire name of element type T.
func elemName[T Float]() string {
	var z T
	if _, ok := any(z).(float64); ok {
		return "float64"
	}
	return "float32"
}

// ParseWireSpec decodes a WireSpec JSON document strictly: unknown fields
// are errors (catching typos like "epsilonn" before they silently run a
// different experiment), as is trailing garbage. Structural resolution —
// stencil registry lookup, grid generation, element-type checks — happens in
// SpecFromWire, which needs the concrete element type.
func ParseWireSpec(data []byte) (*WireSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w WireSpec
	if err := dec.Decode(&w); err != nil {
		return nil, wireErrorf(nil, "stencilabft: cannot parse wire spec: %v", err)
	}
	if dec.More() {
		return nil, wireErrorf(nil, "stencilabft: trailing data after wire spec document")
	}
	return &w, nil
}

// boundaryFromName resolves a wire boundary-condition name; "" means clamp.
func boundaryFromName(name string) (Boundary, error) {
	switch name {
	case "", "clamp":
		return Clamp, nil
	case "periodic":
		return Periodic, nil
	case "mirror":
		return Mirror, nil
	case "constant":
		return Constant, nil
	case "zero":
		return Zero, nil
	default:
		return Clamp, wireErrorf(nil, "stencilabft: unknown boundary condition %q (want clamp|periodic|mirror|constant|zero)", name)
	}
}

// stencilFromWire resolves a WireStencil: inline points verbatim, or a
// registry entry by name with its args applied.
func stencilFromWire[T Float](w *WireStencil) (*Stencil[T], error) {
	if w == nil {
		return nil, wireErrorf(nil, "stencilabft: wire spec needs a stencil (a registry name like %q, or inline points)", "laplace5")
	}
	if len(w.Points) > 0 {
		if len(w.Args) > 0 {
			return nil, wireErrorf(nil, "stencilabft: stencil args apply to registry entries only; inline points carry their own weights")
		}
		name := w.Name
		if name == "" {
			name = "wire"
		}
		st := &Stencil[T]{Name: name, Points: make([]Point[T], 0, len(w.Points))}
		for _, p := range w.Points {
			st.Points = append(st.Points, Point[T]{DX: p.DX, DY: p.DY, DZ: p.DZ, W: T(p.W)})
		}
		return st, nil
	}
	// args returns the entry's parameters: the wire args when given (the
	// count must match), else the documented defaults.
	args := func(defaults ...float64) ([]T, error) {
		src := defaults
		if len(w.Args) > 0 {
			if len(w.Args) != len(defaults) {
				return nil, wireErrorf(nil, "stencilabft: stencil %q takes %d arg(s), got %d", w.Name, len(defaults), len(w.Args))
			}
			src = w.Args
		}
		out := make([]T, len(src))
		for i, v := range src {
			out[i] = T(v)
		}
		return out, nil
	}
	noArgs := func() error {
		if len(w.Args) != 0 {
			return wireErrorf(nil, "stencilabft: stencil %q takes no args, got %d", w.Name, len(w.Args))
		}
		return nil
	}
	switch w.Name {
	case "":
		return nil, wireErrorf(nil, "stencilabft: wire stencil needs a registry name (%v) or inline points", WireStencilNames())
	case "laplace5":
		a, err := args(0.2)
		if err != nil {
			return nil, err
		}
		return Laplace5(a[0]), nil
	case "jacobi4":
		if err := noArgs(); err != nil {
			return nil, err
		}
		return Jacobi4[T](), nil
	case "box9":
		if err := noArgs(); err != nil {
			return nil, err
		}
		return BoxBlur[T](), nil
	case "five-point":
		a, err := args(0.2, 0.2, 0.2, 0.2, 0.2)
		if err != nil {
			return nil, err
		}
		return FivePoint(a[0], a[1], a[2], a[3], a[4]), nil
	case "advect2d":
		a, err := args(0.3, 0.2)
		if err != nil {
			return nil, err
		}
		return Advect2D(a[0], a[1]), nil
	case "star7":
		a, err := args(0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.15)
		if err != nil {
			return nil, err
		}
		return SevenPoint3D(a[0], a[1], a[2], a[3], a[4], a[5], a[6]), nil
	default:
		return nil, wireErrorf(ErrUnknownStencil, "stencilabft: unknown stencil %q (registry: %v; or supply inline points)", w.Name, WireStencilNames())
	}
}

// fillGenerated writes the values of resolved generator reference g into
// data (row-major over an nx×ny×nz box; nz is 1 for 2-D domains). Every
// generator is deterministic: "uniform" draws from a rand.Source seeded
// with g.Seed, per element type, so the same wire document always yields
// the same bits.
func fillGenerated[T Float](data []T, g *WireGrid, nx, ny, nz int) {
	switch g.Generator {
	case "uniform":
		rng := rand.New(rand.NewSource(g.Seed))
		if _, is64 := any(data[0]).(float64); is64 {
			for i := range data {
				data[i] = T(100 + 50*rng.Float64())
			}
		} else {
			for i := range data {
				data[i] = T(100 + 50*rng.Float32())
			}
		}
	case "constant":
		v := T(g.Value)
		for i := range data {
			data[i] = v
		}
	case "ramp":
		i := 0
		for z := 0; z < nz; z++ {
			for y := 0; y < ny; y++ {
				for x := 0; x < nx; x++ {
					data[i] = T(100 + (x*13+y*7+z*3)%17)
					i++
				}
			}
		}
	}
}

// resolvedGenerator returns the canonical reference to generator grid g for
// element type T: the shape, the generator name and only the parameter that
// generator reads, with the value rounded to T — so every spelling of one
// generated grid (defaults omitted or explicit, an ignored seed or value
// set) is one document. An unknown generator is a typed wire error.
func resolvedGenerator[T Float](g *WireGrid) (*WireGrid, error) {
	ref := &WireGrid{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, Generator: g.Generator}
	switch g.Generator {
	case "uniform":
		ref.Seed = g.Seed
	case "constant":
		ref.Value = float64(T(g.Value))
	case "ramp": // reads no parameter
	default:
		return nil, wireErrorf(ErrUnknownGenerator, "stencilabft: unknown grid generator %q (want uniform|constant|ramp, or supply inline data)", g.Generator)
	}
	return ref, nil
}

// regenerates reports whether data still holds, bit for bit, what generator
// reference ref produces — the condition under which Wire may emit the
// reference instead of the values.
func regenerates[T Float](ref *WireGrid, nx, ny, nz int, data []T) bool {
	if ref == nil || ref.Nx != nx || ref.Ny != ny || ref.Nz != nz {
		return false
	}
	want := make([]T, len(data))
	fillGenerated(want, ref, nx, ny, max(nz, 1))
	for i, v := range data {
		if math.Float64bits(float64(v)) != math.Float64bits(float64(want[i])) {
			return false
		}
	}
	return true
}

// gridFromWire materialises a WireGrid into the matching dimensionality's
// domain. A generator grid also yields its resolved reference; with build
// false it yields only that — checked exactly as a built one is, but never
// allocated or filled. Upload references must have been resolved to
// inline data first — that is the service layer's job (POST /v1/grids),
// and leaving one unresolved is an error here, not a silent zero grid.
func gridFromWire[T Float](g *WireGrid, what string, build bool) (*Grid[T], *Grid3D[T], *WireGrid, error) {
	if g == nil {
		return nil, nil, nil, wireErrorf(nil, "stencilabft: wire spec needs a %s (inline data, a generator, or a resolved upload)", what)
	}
	nz := g.Nz
	if nz < 0 {
		return nil, nil, nil, wireErrorf(nil, "stencilabft: %s has negative nz %d (use nz >= 1 for 3-D, omit it or set 0 for 2-D)", what, g.Nz)
	}
	is3D := nz > 0
	if !is3D {
		nz = 1
	}
	if g.Nx < 1 || g.Ny < 1 {
		return nil, nil, nil, wireErrorf(nil, "stencilabft: %s shape %dx%dx%d is invalid (each set axis must be >= 1)", what, g.Nx, g.Ny, g.Nz)
	}
	sources := 0
	for _, set := range []bool{g.Upload != "", g.Generator != "", g.Data != nil} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, nil, nil, wireErrorf(nil, "stencilabft: %s needs exactly one source — inline data, a generator name, or an upload reference (got %d)", what, sources)
	}
	if g.Upload != "" {
		return nil, nil, nil, wireErrorf(ErrUnresolvedUpload, "stencilabft: %s references upload %q, which must be resolved to inline data before building (the service splices uploads in; see POST /v1/grids)", what, g.Upload)
	}
	n := g.Nx * g.Ny * nz
	var data []T
	var ref *WireGrid
	if g.Data != nil {
		if len(g.Data) != n {
			return nil, nil, nil, wireErrorf(nil, "stencilabft: %s carries %d inline values, want nx*ny*max(nz,1) = %d", what, len(g.Data), n)
		}
		data = make([]T, n)
		for i, v := range g.Data {
			data[i] = T(v)
		}
	} else {
		var err error
		if ref, err = resolvedGenerator[T](g); err != nil {
			return nil, nil, nil, err
		}
		if !build {
			return nil, nil, ref, nil
		}
		data = make([]T, n)
		fillGenerated(data, ref, g.Nx, g.Ny, nz)
	}
	if is3D {
		gd := New3D[T](g.Nx, g.Ny, g.Nz)
		copy(gd.Data(), data)
		return nil, gd, ref, nil
	}
	gd := New[T](g.Nx, g.Ny)
	copy(gd.Data(), data)
	return gd, nil, ref, nil
}

// SpecFromWire resolves a parsed WireSpec into a buildable Spec for element
// type T: registry stencils become point sets, generator grids become
// values, names become enums. The wire document's elem field must match T —
// a service dispatches on it; a library caller instantiates accordingly.
// Validation beyond resolution is left to Build, whose errors are typed
// (ErrInvalidSpec and friends) just like the wire errors here.
func SpecFromWire[T Float](w *WireSpec) (Spec[T], error) {
	return specFromWire[T](w, true)
}

// Canonical validates w and returns its canonical document: byte for byte
// json.Marshal of the Spec SpecFromWire resolves for w's elem, once
// Validate accepts it, and refused with the same typed errors. Named
// stencils are expanded to points, elem is explicit, inline grids are their
// values rounded to the element type, and a generator grid is its resolved
// generator reference — which Canonical emits without ever allocating or
// filling the domain. The canonical bytes are what a service hashes for its
// cache key and hands its workers to run.
func (w *WireSpec) Canonical() ([]byte, error) {
	if w != nil && w.Elem == "float64" {
		return canonical[float64](w)
	}
	// float32 is the default; an unknown elem fails inside specFromWire
	// with the typed wire error.
	return canonical[float32](w)
}

func canonical[T Float](w *WireSpec) ([]byte, error) {
	spec, err := specFromWire[T](w, false)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(spec)
}

// specFromWire is the one WireSpec resolver. With build false a generator
// grid stays unbuilt: the spec holds its resolved reference alone, enough to
// validate and emit the canonical document but not to Build.
func specFromWire[T Float](w *WireSpec, build bool) (Spec[T], error) {
	var spec Spec[T]
	if w == nil {
		return spec, wireErrorf(nil, "stencilabft: nil wire spec")
	}
	elem := w.Elem
	if elem == "" {
		elem = "float32"
	}
	if elem != "float32" && elem != "float64" {
		return spec, wireErrorf(nil, "stencilabft: unknown elem %q (want float32|float64)", elem)
	}
	if want := elemName[T](); elem != want {
		return spec, wireErrorf(nil, "stencilabft: wire spec declares elem %q but the caller builds %s specs — dispatch on the elem field before resolving", elem, want)
	}
	st, err := stencilFromWire[T](w.Stencil)
	if err != nil {
		return spec, err
	}
	bc, err := boundaryFromName(w.BC)
	if err != nil {
		return spec, err
	}
	init, init3, generated, err := gridFromWire[T](w.Grid, "grid", build)
	if err != nil {
		return spec, err
	}
	is3D := w.Grid.Nz > 0
	var cf *Grid[T]
	var cf3 *Grid3D[T]
	if w.CField != nil {
		if w.CField.Data == nil {
			return spec, wireErrorf(nil, "stencilabft: cfield carries the operator's constant term and must be inline data")
		}
		cf, cf3, _, err = gridFromWire[T](w.CField, "cfield", true)
		if err != nil {
			return spec, err
		}
		if (cf3 != nil) != is3D {
			return spec, wireErrorf(nil, "stencilabft: cfield dimensionality must match the grid's (set nz on both or neither)")
		}
	}
	spec.Scheme = Scheme(w.Scheme)
	spec.Deployment = Deployment(w.Deployment)
	if is3D {
		spec.Op3D = &Op3D[T]{St: st, BC: bc, BCValue: T(w.BCValue), C: cf3, ForceGeneric: w.ForceGeneric}
		spec.Init3D = init3
	} else {
		spec.Op2D = &Op2D[T]{St: st, BC: bc, BCValue: T(w.BCValue), C: cf, ForceGeneric: w.ForceGeneric}
		spec.Init = init
	}
	spec.generated, spec.unbuilt = generated, !build && generated != nil
	spec.Detector = Detector[T]{Epsilon: T(w.Epsilon), AbsFloor: T(w.AbsFloor)}
	switch w.PairPolicy {
	case "", "residual":
		spec.PairPolicy = PairByResidual
	case "index":
		spec.PairPolicy = PairByIndex
	default:
		return Spec[T]{}, wireErrorf(nil, "stencilabft: unknown pair policy %q (want residual|index)", w.PairPolicy)
	}
	spec.Period = w.Period
	switch w.Recovery {
	case "", "rollback":
		spec.Recovery = FullRollback
	case "cone":
		spec.Recovery = ConeRecovery
	default:
		return Spec[T]{}, wireErrorf(nil, "stencilabft: unknown recovery mode %q (want rollback|cone)", w.Recovery)
	}
	spec.Ranks = w.Ranks
	spec.RanksX, spec.RanksY = w.RanksX, w.RanksY
	spec.HaloDepth = w.HaloDepth
	spec.BlockX, spec.BlockY = w.BlockX, w.BlockY
	if len(w.Inject) > 0 {
		injs := make([]Injection, len(w.Inject))
		for i, in := range w.Inject {
			injs[i] = Injection{Iteration: in.Iteration, X: in.X, Y: in.Y, Z: in.Z, Bit: in.Bit}
		}
		spec.Inject = NewPlan(injs...)
	}
	spec.DropBoundaryTerms = w.DropBoundaryTerms
	spec.PaperExactCorrection = w.PaperExactCorrection
	return spec, nil
}

// Wire converts the Spec to its wire form, refusing process-local state
// with an actionable error per field (errors.Is: ErrNotSerializable). The
// emitted form is fully resolved — stencil as inline points, elem explicit,
// grids as inline values — so it doubles as the canonical document
// content-addressed caches hash. The one grid not inlined is an initial
// domain SpecFromWire generated and nobody has written to since: it stays
// its resolved generator reference (a few dozen bytes, however large the
// domain), which rebuilds the same bits wherever the document is read.
func (s Spec[T]) Wire() (*WireSpec, error) {
	switch {
	case s.Pool != nil:
		return nil, notSerializablef("stencilabft: Pool is process-local; the executing worker chooses its own pool (leave Pool nil — parallelism does not change results)")
	case s.InjectSource != nil:
		return nil, notSerializablef("stencilabft: InjectSource is a Go value and cannot travel; declare the faults as a Plan on Inject instead")
	case s.NewTransport != nil:
		return nil, notSerializablef("stencilabft: NewTransport is a function hook and cannot travel; name a backend on Transport, or leave it empty for the default")
	case s.WrapTransport != nil:
		return nil, notSerializablef("stencilabft: WrapTransport is a function hook and cannot travel; chaos/tracing wrappers are host-side configuration")
	case s.WrapConn != nil:
		return nil, notSerializablef("stencilabft: WrapConn is a function hook and cannot travel; wire-level chaos is host-side configuration")
	case s.AfterStep != nil:
		return nil, notSerializablef("stencilabft: AfterStep is a function hook and cannot travel; checkpointing hooks are host-side configuration")
	case s.Telemetry != nil:
		return nil, notSerializablef("stencilabft: Telemetry is process-local; the executing worker attaches its own collector and reports Stats.Timing back")
	case s.Transport == TransportTCP || s.Rendezvous != "" || s.Bind != "" || s.Rank != 0:
		return nil, notSerializablef("stencilabft: tcp endpoints (Transport: \"tcp\", Rank, Rendezvous, Bind) are process placement, not experiment description; the service assigns ranks and rendezvous itself")
	case s.RecvTimeout != 0:
		return nil, notSerializablef("stencilabft: RecvTimeout is a process-local liveness bound; the executing host sets its own deadlines")
	}
	w := &WireSpec{
		Elem:       elemName[T](),
		Scheme:     string(s.Scheme),
		Deployment: string(s.Deployment),
		Ranks:      s.Ranks, RanksX: s.RanksX, RanksY: s.RanksY,
		HaloDepth: s.HaloDepth,
		BlockX:    s.BlockX, BlockY: s.BlockY,
		Epsilon:  float64(s.Detector.Epsilon),
		AbsFloor: float64(s.Detector.AbsFloor),
		Period:   s.Period,

		DropBoundaryTerms:    s.DropBoundaryTerms,
		PaperExactCorrection: s.PaperExactCorrection,
	}
	if s.PairPolicy == PairByIndex {
		w.PairPolicy = "index"
	}
	if s.Recovery == ConeRecovery {
		w.Recovery = "cone"
	}
	var st *Stencil[T]
	switch {
	case s.Op2D != nil && (s.Init != nil || s.unbuilt):
		st = s.Op2D.St
		w.BC = s.Op2D.BC.String()
		w.BCValue = float64(s.Op2D.BCValue)
		w.ForceGeneric = s.Op2D.ForceGeneric
		if s.unbuilt || regenerates(s.generated, s.Init.Nx(), s.Init.Ny(), 0, s.Init.Data()) {
			ref := *s.generated
			w.Grid = &ref
		} else {
			w.Grid = wireGrid2D(s.Init)
		}
		if s.Op2D.C != nil {
			w.CField = wireGrid2D(s.Op2D.C)
		}
	case s.Op3D != nil && (s.Init3D != nil || s.unbuilt):
		st = s.Op3D.St
		w.BC = s.Op3D.BC.String()
		w.BCValue = float64(s.Op3D.BCValue)
		w.ForceGeneric = s.Op3D.ForceGeneric
		if s.unbuilt || regenerates(s.generated, s.Init3D.Nx(), s.Init3D.Ny(), s.Init3D.Nz(), s.Init3D.Data()) {
			ref := *s.generated
			w.Grid = &ref
		} else {
			w.Grid = wireGrid3D(s.Init3D)
		}
		if s.Op3D.C != nil {
			w.CField = wireGrid3D(s.Op3D.C)
		}
	default:
		return nil, notSerializablef("stencilabft: spec has no complete operator to serialize (set Op2D with Init, or Op3D with Init3D)")
	}
	if st == nil {
		return nil, notSerializablef("stencilabft: spec's operator has no stencil")
	}
	ws := &WireStencil{Name: st.Name, Points: make([]WirePoint, 0, len(st.Points))}
	for _, p := range st.Points {
		ws.Points = append(ws.Points, WirePoint{DX: p.DX, DY: p.DY, DZ: p.DZ, W: float64(p.W)})
	}
	w.Stencil = ws
	if s.Inject != nil {
		for _, in := range s.Inject.Injections() {
			w.Inject = append(w.Inject, WireInjection{Iteration: in.Iteration, X: in.X, Y: in.Y, Z: in.Z, Bit: in.Bit})
		}
	}
	return w, nil
}

// wireGrid2D encodes a 2-D grid as inline wire data.
func wireGrid2D[T Float](g *Grid[T]) *WireGrid {
	data := make([]float64, g.Len())
	for i, v := range g.Data() {
		data[i] = float64(v)
	}
	return &WireGrid{Nx: g.Nx(), Ny: g.Ny(), Data: data}
}

// wireGrid3D encodes a 3-D grid as inline wire data.
func wireGrid3D[T Float](g *Grid3D[T]) *WireGrid {
	data := make([]float64, g.Len())
	for i, v := range g.Data() {
		data[i] = float64(v)
	}
	return &WireGrid{Nx: g.Nx(), Ny: g.Ny(), Nz: g.Nz(), Data: data}
}

// MarshalJSON serializes the Spec through its wire form; see Wire for what
// is refused and why. json.Marshal(spec) therefore either yields a document
// ParseWireSpec + SpecFromWire rebuilds bit-identically, or fails loudly.
func (s Spec[T]) MarshalJSON() ([]byte, error) {
	w, err := s.Wire()
	if err != nil {
		return nil, err
	}
	return json.Marshal(w)
}

// UnmarshalJSON parses a wire document straight into the Spec — the inverse
// of MarshalJSON. The document's elem field must match T.
func (s *Spec[T]) UnmarshalJSON(data []byte) error {
	w, err := ParseWireSpec(data)
	if err != nil {
		return err
	}
	spec, err := SpecFromWire[T](w)
	if err != nil {
		return err
	}
	*s = spec
	return nil
}
