package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	abft "stencilabft"
	"stencilabft/internal/chaos"
	"stencilabft/internal/dist"
	"stencilabft/internal/stats"
)

// protocolSamples is a worker conversation as bytes on the wire: what the
// host writes (a request and its spec, a placed one) and what the worker
// answers (stats, a checkpoint, a done event with a float32 grid, one with
// a float64 tile and a trace, an error).
func protocolSamples(t testing.TB) (requests, events []byte) {
	t.Helper()
	var req, ev bytes.Buffer
	host, worker := newStream(nil, &req), newStream(nil, &ev)
	spec := []byte(`{"elem":"float32","stencil":{"name":"laplace5"},"grid":{"nx":4,"ny":2,"generator":"ramp"}}`)
	if err := host.Send(JobRequest{ID: "j1", Spec: spec, Iters: 3, StatsEvery: 1}); err != nil {
		t.Fatal(err)
	}
	place := &Placement{Rank: 1, Rendezvous: "127.0.0.1:9", Epoch: 2, Control: "127.0.0.1:10", Buddy: 8, CkptDir: "ck", DieAt: 20,
		Chaos: &chaos.Plan{Faults: []chaos.Fault{{Type: chaos.Drop, Edge: &chaos.Edge{From: 0, To: 1}, At: 4}}}, ChaosSeed: 3, Trace: true}
	if err := host.Send(JobRequest{ID: "j2", Spec: spec, Iters: 1, Place: place}); err != nil {
		t.Fatal(err)
	}
	st := fullStats()
	for _, e := range []WorkerEvent{
		{ID: "j1", Event: "stats", Iter: 1, Stats: &st},
		{ID: "j2", Event: "ckpt", Ckpt: &Checkpoint{Rank: 1, Gen: 8, Reconnects: 2, Resends: 11}},
		{ID: "j1", Event: "done", Iter: 3, Stats: &st, Grid: &GridPayload{Nx: 4, Ny: 2, Elem: "float32",
			Raw: dist.AppendElems(nil, []float32{1, 2, 3, 4, 5, 6, 7, float32(math.Inf(1))})}},
		{ID: "j2", Event: "done", Iter: 1, Stats: &st, Grid: &GridPayload{Nx: 2, Ny: 1, Nz: 2, X0: 2, Y0: 1, Elem: "float64",
			Raw: dist.AppendElems(nil, []float64{0.1, math.NaN(), math.Copysign(0, -1), 5e-324})},
			Trace: []byte(`{"traceEvents":[]}` + "\n")},
		{ID: "j3", Event: "error", Error: "serve: no", Status: 400},
	} {
		if err := worker.writeEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	return req.Bytes(), ev.Bytes()
}

// fullStats is a stats.Stats with every leaf field, found by reflection,
// set to its own value.
func fullStats() stats.Stats {
	var st stats.Stats
	n := int64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := range v.Len() {
				fill(v.Index(i))
			}
		case reflect.String:
			v.SetString(`mixed(grid 2x2; "layers" 4)`)
		default:
			n++
			v.SetInt(-n * 7919)
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	return st
}

// TestStreamRoundTrip: every message survives the wire with its attachments
// bit for bit — the stats of "stats" and "done" events as a binary
// attachment, never in the JSON line — and the stream ends on a clean
// io.EOF.
func TestStreamRoundTrip(t *testing.T) {
	reqs, evs := protocolSamples(t)

	w := newStream(bytes.NewReader(reqs), io.Discard)
	r1, err := w.readRequest()
	if err != nil || r1.ID != "j1" || r1.Iters != 3 || r1.StatsEvery != 1 || !bytes.Contains(r1.Spec, []byte(`"ramp"`)) {
		t.Fatalf("request 1: %+v, %v", r1, err)
	}
	r2, err := w.readRequest()
	if err != nil || r1.Place != nil || r2.Place == nil || !bytes.Equal(r2.Spec, r1.Spec) {
		t.Fatalf("request 2: %+v, %v", r2, err)
	}
	if pl := r2.Place; pl.Rank != 1 || pl.Rendezvous != "127.0.0.1:9" || pl.Epoch != 2 || pl.Control != "127.0.0.1:10" ||
		pl.Buddy != 8 || pl.CkptDir != "ck" || pl.DieAt != 20 || pl.ChaosSeed != 3 || !pl.Trace ||
		len(pl.Chaos.Faults) != 1 || *pl.Chaos.Faults[0].Edge != (chaos.Edge{From: 0, To: 1}) {
		t.Fatalf("placement: %+v", pl)
	}
	if _, err := w.readRequest(); err != io.EOF {
		t.Fatalf("after the last request: %v, want io.EOF", err)
	}

	// The event headers are binary records, not JSON lines, and the stats
	// of the three stats and done events travel as attachments.
	withStats := 0
	for _, h := range eventHeaders(t, evs) {
		if h.StatsAttach > 0 {
			withStats++
		}
	}
	if bytes.Contains(evs, []byte(`"event":`)) || bytes.Contains(evs, []byte(`"stats":`)) || withStats != 3 {
		t.Fatalf("%d events carry a stats attachment, want 3; or JSON crossed the pipe:\n%q", withStats, evs)
	}
	want := fullStats()
	h := newStream(bytes.NewReader(evs), io.Discard)
	if ev, err := h.Recv(); err != nil || ev.Event != "stats" || ev.Iter != 1 || ev.Stats == nil || *ev.Stats != want || ev.Grid != nil {
		t.Fatalf("stats event: %+v, %v", ev, err)
	}
	if ev, err := h.Recv(); err != nil || ev.Event != "ckpt" || *ev.Ckpt != (Checkpoint{Rank: 1, Gen: 8, Reconnects: 2, Resends: 11}) {
		t.Fatalf("ckpt event: %+v, %v", ev, err)
	}
	ev, err := h.Recv()
	if err != nil || ev.Event != "done" || ev.Grid == nil || ev.Trace != nil || ev.Stats == nil || *ev.Stats != want {
		t.Fatalf("done event: %+v, %v", ev, err)
	}
	cells, err := dist.DecodeElems[float32](4, ev.Grid.Raw)
	if err != nil || len(cells) != 8 || cells[0] != 1 || !math.IsInf(float64(cells[7]), 1) {
		t.Fatalf("float32 grid: %v, %v", cells, err)
	}
	ev, err = h.Recv()
	if err != nil || ev.Grid == nil || ev.Grid.X0 != 2 || ev.Grid.Y0 != 1 || ev.Grid.Nz != 2 || string(ev.Trace) != `{"traceEvents":[]}`+"\n" ||
		ev.Stats == nil || *ev.Stats != want {
		t.Fatalf("tile event: %+v, %v", ev, err)
	}
	c64, err := dist.DecodeElems[float64](8, ev.Grid.Raw)
	if err != nil || c64[0] != 0.1 || !math.IsNaN(c64[1]) || !math.Signbit(c64[2]) || c64[3] != 5e-324 {
		t.Fatalf("float64 tile: %v, %v", c64, err)
	}
	if ev, err := h.Recv(); err != nil || ev.Event != "error" || ev.Status != 400 || ev.Stats != nil {
		t.Fatalf("error event: %+v, %v", ev, err)
	}
	if _, err := h.Recv(); err != io.EOF {
		t.Fatalf("after the last event: %v, want io.EOF", err)
	}
}

// eventHeaders decodes the header of every event in a recorded stream,
// stepping over the attachments each announces.
func eventHeaders(t *testing.T, evs []byte) []eventHeader {
	t.Helper()
	var out []eventHeader
	for len(evs) > 0 {
		if evs[0] != msgEvent {
			t.Fatalf("message kind %#x in an event stream", evs[0])
		}
		n, k := binary.Uvarint(evs[1:])
		var h eventHeader
		if k <= 0 || stats.UnmarshalFields(evs[1+k:1+k+int(n)], &h) != nil {
			t.Fatalf("undecodable event header in %q", evs)
		}
		out = append(out, h)
		evs = evs[1+k+int(n)+h.StatsAttach+h.Attach+h.TraceAttach:]
	}
	return out
}

// rawMessage is a message as bytes: its kind, its header's length, the
// header, then tail.
func rawMessage(kind byte, head []byte, tail string) string {
	return string(binary.AppendUvarint([]byte{kind}, uint64(len(head)))) + string(head) + tail
}

// rawEvent is an event message with header h, followed by tail.
func rawEvent(h eventHeader, tail string) string {
	head, err := stats.AppendFields(nil, &h)
	if err != nil {
		panic(err)
	}
	return rawMessage(msgEvent, head, tail)
}

// rawRequest is a request message with JSON header head, followed by tail.
func rawRequest(head, tail string) string { return rawMessage(msgRequest, []byte(head), tail) }

// grid2x2 is the header of a done event announcing a 2x2 float32 grid of
// attach bytes.
func grid2x2(attach int) eventHeader {
	return eventHeader{ID: "j", Event: "done", Has: hasGrid, Grid: gridShape{Nx: 2, Ny: 2, Elem: "float32"}, Attach: attach}
}

// TestStreamRejectsBadAttachments: a length that disagrees with the grid's
// shape, a length beyond the cap, a cut-off attachment, and a header that
// is cut short, over its cap, trailed by bytes, of an unknown kind or
// marking unknown parts are errors — never a panic — and the oversize ones
// are refused before anything of that size is allocated.
func TestStreamRejectsBadAttachments(t *testing.T) {
	stat := func(n int) eventHeader { return eventHeader{ID: "j", Event: "stats", StatsAttach: n} }
	done := func(g gridShape, attach int) eventHeader {
		return eventHeader{ID: "j", Event: "done", Has: hasGrid, Grid: g, Attach: attach}
	}
	head, err := stats.AppendFields(nil, &eventHeader{ID: "j", Event: "stats", Iter: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ name, wire, want string }{
		{"length disagrees with shape", rawEvent(grid2x2(15), strings.Repeat("x", 15)), "needs 16"},
		{"attachment without a grid", rawEvent(eventHeader{ID: "j", Event: "stats", Attach: 4}, "abcd"), "needs 0"},
		{"unknown element type", rawEvent(done(gridShape{Nx: 2, Ny: 2, Elem: "float16"}, 8), "12345678"), "not a shape"},
		{"shape overflows", rawEvent(done(gridShape{Nx: 1 << 62, Ny: 4, Elem: "float64"}, 0), ""), "not a shape"},
		{"shape beyond the cap", rawEvent(done(gridShape{Nx: 65536, Ny: 65536, Elem: "float64"}, 34359738368), ""), "not a shape"},
		{"truncated", rawEvent(grid2x2(16), "short"), "truncated"},
		{"truncated trace", rawEvent(eventHeader{ID: "j", Event: "done", Has: hasGrid, Grid: gridShape{Nx: 1, Ny: 1, Elem: "float32"},
			Attach: 4, TraceAttach: 9}, "1234{}"), "truncated"},
		{"negative trace length", rawEvent(eventHeader{ID: "j", Event: "done", TraceAttach: -1}, ""), "outside"},
		{"negative stats length", rawEvent(stat(-1), ""), "outside"},
		{"stats beyond the cap", rawEvent(stat(65537), strings.Repeat("\x00", 65537)), "outside"},
		{"truncated stats", rawEvent(stat(40), "\x00\x00"), "truncated stats"},
		{"short stats", rawEvent(stat(3), "\x02\x04\x06"), "bad stats"},
		{"stats with trailing bytes", statsPlus(stat(0), 1) + "\x00", "trail"},
		{"stats string past its end", rawEvent(stat(17), strings.Repeat("\x00", 16)+"\x7f"), "bad stats"},
		{"cut inside the header", rawEvent(grid2x2(16), "")[:9], "unexpected EOF"},
		{"cut inside the header length", "E\x80", "unexpected EOF"},
		{"cut after the kind", "E", "unexpected EOF"},
		{"header over its cap", string(binary.AppendUvarint([]byte{msgEvent}, maxHeader+1)) + "xyz", "exceeds"},
		{"trailing header bytes", rawMessage(msgEvent, append(head, 0), ""), "trail"},
		{"unknown parts", rawEvent(eventHeader{ID: "j", Event: "done", Has: 4}, ""), "unknown parts"},
		{"unknown message kind", "hello\n", "unknown message kind"},
		{"a request where an event belongs", rawRequest(`{"id":"j","iters":1,"attach":0}`, ""), "unknown message kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := newStream(strings.NewReader(tc.wire), io.Discard).Recv()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Recv: %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
	for _, tc := range []struct{ name, wire, want string }{
		{"not json", rawRequest("hello", ""), "bad request header"},
		{"trailing bytes after the document", rawRequest(`{"id":"j","iters":1,"attach":0} x`, ""), "bad request header"},
		{"an event where a request belongs", rawEvent(grid2x2(0), ""), "unknown message kind"},
		{"truncated spec", rawRequest(`{"id":"j","iters":1,"attach":9}`, "spec"), "truncated"},
		{"cut inside a long header", string(binary.AppendUvarint([]byte{msgRequest}, maxHeader)) + "{", "unexpected EOF"},
	} {
		t.Run("request/"+tc.name, func(t *testing.T) {
			_, err := newStream(strings.NewReader(tc.wire), io.Discard).readRequest()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("readRequest: %v, want an error mentioning %q", err, tc.want)
			}
		})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = newStream(strings.NewReader(rawRequest(`{"id":"j","iters":1,"attach":1073741825}`, "spec")), io.Discard).readRequest()
	_, err2 := newStream(strings.NewReader(rawEvent(eventHeader{ID: "j", Event: "done", TraceAttach: 1073741825}, "trace")), io.Discard).Recv()
	_, err3 := newStream(strings.NewReader(rawEvent(stat(1073741825), "stats")), io.Discard).Recv()
	_, err4 := newStream(strings.NewReader(string(binary.AppendUvarint([]byte{msgEvent}, 1<<40))+"head"), io.Discard).Recv()
	_, err5 := newStream(strings.NewReader(string(binary.AppendUvarint([]byte{msgRequest}, maxHeader))+"head"), io.Discard).readRequest()
	runtime.ReadMemStats(&after)
	for _, e := range []error{err, err2, err3} {
		if e == nil || !strings.Contains(e.Error(), "outside") {
			t.Fatalf("oversize request, trace and stats attachments: %v; %v; %v", err, err2, err3)
		}
	}
	if err4 == nil || !strings.Contains(err4.Error(), "exceeds") || err5 == nil || !strings.Contains(err5.Error(), "truncated") {
		t.Fatalf("oversize and cut-short headers: %v; %v", err4, err5)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing three 1 GiB attachments, a 1 TiB header and a cut-short 1 MiB one allocated %d bytes", grew)
	}
}

// statsPlus is a stats event with header h whose attachment is a whole
// stats.Stats followed by extra more bytes, which the caller appends (or,
// for a negative extra, announced that many bytes short).
func statsPlus(h eventHeader, extra int) string {
	b, err := fullStats().AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	h.StatsAttach = len(b) + extra
	return rawEvent(h, string(b))
}

// FuzzWorkerStream feeds arbitrary bytes to both ends of the protocol
// reader. It must never panic, never hang (the input is finite, so every
// path ends in a message or an error), and never allocate more than the
// attachment cap plus what the input itself holds because a line said so.
func FuzzWorkerStream(f *testing.F) {
	reqs, evs := protocolSamples(f)
	f.Add(reqs)
	f.Add(evs)
	f.Add(evs[:len(evs)/2])
	f.Add(reqs[:len(reqs)-3])
	f.Add([]byte(rawEvent(eventHeader{ID: "j", Event: "done", Has: hasGrid,
		Grid: gridShape{Nx: 1000000, Ny: 1000000, Elem: "float64"}, Attach: 8000000000000}, "")))
	f.Add([]byte(rawRequest(`{"id":"j","iters":1,"attach":999999999999}`, "x")))
	f.Add([]byte(rawRequest(`{"attach":-1}`, "")))
	f.Add([]byte(rawEvent(eventHeader{ID: "j", Event: "ckpt", Has: hasCkpt, Ckpt: Checkpoint{Rank: 3, Gen: 16}}, "")))
	f.Add([]byte(rawEvent(eventHeader{ID: "j", Event: "done", TraceAttach: 999999999999}, "{}")))
	stat := eventHeader{ID: "j", Event: "stats", Iter: 2}
	f.Add([]byte(statsPlus(stat, 0)))
	f.Add([]byte(statsPlus(stat, -5)))
	f.Add([]byte(statsPlus(eventHeader{ID: "j", Event: "done", Has: hasGrid, Grid: gridShape{Nx: 1, Ny: 1, Elem: "float32"}, Attach: 4}, 0) + "abcd"))
	f.Add([]byte(rawEvent(eventHeader{ID: "j", Event: "stats", StatsAttach: 999999999999}, "\x00")))
	f.Add(binary.AppendUvarint([]byte{msgEvent}, maxHeader+1))
	f.Add(binary.AppendUvarint([]byte{msgRequest}, maxHeader))
	f.Add([]byte(rawEvent(eventHeader{ID: "j", Event: "error", Error: "serve: no", Status: 400}, "")))
	f.Add(bytes.Repeat([]byte("x"), 5000))

	const fuzzCap = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		host := newStream(bytes.NewReader(data), io.Discard)
		host.maxAttach = fuzzCap
		for n := 0; ; n++ {
			ev, err := host.Recv()
			if err != nil {
				break
			}
			if ev.Grid != nil && len(ev.Grid.Raw) > fuzzCap || len(ev.Trace) > fuzzCap {
				t.Fatalf("accepted an attachment over a %d-byte cap: %+v", fuzzCap, ev)
			}
			if n > len(data) {
				t.Fatal("more messages than input bytes")
			}
		}
		worker := newStream(bytes.NewReader(data), io.Discard)
		worker.maxAttach = fuzzCap
		for {
			req, err := worker.readRequest()
			if err != nil {
				break
			}
			if len(req.Spec) > fuzzCap {
				t.Fatalf("accepted a %d-byte spec over a %d-byte cap", len(req.Spec), fuzzCap)
			}
		}
		runtime.ReadMemStats(&after)
		// Every message costs at least its kind and header-length bytes, so
		// the reads are bounded by the input; the allowance is decode
		// garbage, not announced sizes.
		if grew, allow := after.TotalAlloc-before.TotalAlloc, uint64(2*fuzzCap+64*len(data)+1<<20); grew > allow {
			t.Fatalf("reading %d input bytes allocated %d (allowance %d)", len(data), grew, allow)
		}
	})
}

// legacyBody is the reflection-encoded result body of the JSON grid
// plumbing this package used to have; the append-writer must reproduce it.
type legacyBody struct {
	ID     string      `json:"id"`
	Cached bool        `json:"cached"`
	Grid   *legacyGrid `json:"grid"`
	Stats  any         `json:"stats"`
}

type legacyGrid struct {
	Nx   int       `json:"nx"`
	Ny   int       `json:"ny"`
	Nz   int       `json:"nz,omitempty"`
	X0   int       `json:"x0,omitempty"`
	Y0   int       `json:"y0,omitempty"`
	Data []float64 `json:"data"`
}

// TestResultJSONMatchesEncodingJSON: the append-writer's body equals what
// encoding/json emits for the same values, byte for byte — across the 'f'/'e'
// format switch, signed zeros, subnormals, float32-widened values and both
// dimensionalities.
func TestResultJSONMatchesEncodingJSON(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 100.5, -123.456, 1.0 / 3,
		5e-324, 1e-310, 2.2250738585072014e-308, // float64 subnormals and the smallest normal
		1e-45, 1.1754943508222875e-38, // the float32 ones
		9.99999e-7, 0.99999999e-6, 1e-6, 1.0000001e-6, 1e-7, 1.5e-9, 1e-10, 1e-100,
		9.99e20, 999999999999999868928, 1e21, 1.0000001e21, 1e22, 1e100, -1e21, -1e-7,
		math.MaxFloat32, math.SmallestNonzeroFloat32, math.MaxFloat64, math.SmallestNonzeroFloat64,
		float64(float32(0.1)), float64(float32(1e-6)), float64(float32(1e21)), float64(float32(123456.789)),
		149.99999, 100.00000000000001,
		// The float32 kernel's edges: 2⁻⁸ and its neighbours, 2²³, the
		// largest float32 below 2⁵³ and 2⁵³ itself, negatives, and a cell
		// whose shortest form has 17 fractional digits.
		f32bits(0x3b7fffff), f32bits(0x3b800000), f32bits(0x3b800001), 1 << 23,
		f32bits(0x59ffffff), 1 << 53, -f32bits(0x3b800000), -256.75, -float64(float32(0.1)),
		f32bits(0x3b80901b),
	}
	st := stats.Stats{Iterations: 16, Detections: 2}
	shapes := []struct{ nx, ny, nz int }{{len(values), 1, 0}, {1, len(values), 0}, {len(values) / 3, 1, 3}, {5, 2, 0}, {2, 2, 2}}
	for _, elem := range []string{"float32", "float64"} {
		for _, sh := range shapes {
			n := sh.nx * sh.ny * max(sh.nz, 1)
			g := &GridPayload{Nx: sh.nx, Ny: sh.ny, Nz: sh.nz, Elem: elem}
			want := make([]float64, 0, n)
			if elem == "float32" {
				var cells []float32
				for _, v := range values[:n] {
					if c := float32(v); !math.IsInf(float64(c), 0) {
						cells = append(cells, c)
					} else {
						cells = append(cells, 7)
					}
				}
				g.Raw = dist.AppendElems(nil, cells)
				for _, c := range cells {
					want = append(want, float64(c))
				}
			} else {
				g.Raw = dist.AppendElems(nil, values[:n])
				want = append(want, values[:n]...)
			}
			for _, cached := range []bool{false, true} {
				got, err := appendResultJSON(nil, "j0007-0123456789ab", cached, g, st)
				if err != nil {
					t.Fatal(err)
				}
				var ref bytes.Buffer
				if err := json.NewEncoder(&ref).Encode(legacyBody{ID: "j0007-0123456789ab", Cached: cached,
					Grid: &legacyGrid{Nx: sh.nx, Ny: sh.ny, Nz: sh.nz, Data: want}, Stats: st}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref.Bytes()) {
					t.Fatalf("%s %dx%dx%d cached=%v:\n got %s\nwant %s", elem, sh.nx, sh.ny, sh.nz, cached, got, ref.Bytes())
				}
			}
		}
	}

	// A real serve_grid job's cells: a uniform 256² grid after 16 online sweeps.
	var done *GridPayload
	spec := []byte(`{"stencil":{"name":"laplace5"},"bc":"clamp","scheme":"online","grid":{"nx":256,"ny":256,"generator":"uniform","seed":1}}`)
	if err := runJob(JobRequest{ID: "j", Spec: spec, Iters: 16}, func(ev WorkerEvent) error {
		if ev.Event != "done" {
			t.Fatalf("job event %q: %s", ev.Event, ev.Error)
		}
		done = ev.Grid
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cells32, err := dist.DecodeElems[float32](4, done.Raw)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]float64, len(cells32))
	for i, c := range cells32 {
		cells[i] = float64(c)
	}
	got, err := appendResultJSON(nil, "j", false, done, st)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(legacyBody{ID: "j", Grid: &legacyGrid{Nx: 256, Ny: 256, Data: cells}, Stats: st}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Fatal("a 256x256 uniform job's result differs from encoding/json's")
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		g := &GridPayload{Nx: 2, Ny: 1, Elem: "float64", Raw: dist.AppendElems(nil, []float64{1, bad})}
		if _, err := appendResultJSON(nil, "j", false, g, st); err != errNonFinite {
			t.Fatalf("grid holding %v: %v, want errNonFinite", bad, err)
		}
	}
}

// f32bits is the float32 with bits b, widened.
func f32bits(b uint32) float64 { return float64(math.Float32frombits(b)) }

// TestCanonicalGeneratorStaysSmall: a generator-backed job's canonical
// document is a reference, not 64k numbers, and spelling the defaults out
// (or setting a parameter the generator ignores) lands on the same bytes,
// hence the same cache key.
func TestCanonicalGeneratorStaysSmall(t *testing.T) {
	canon := func(doc string) []byte {
		t.Helper()
		w, err := abft.ParseWireSpec([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		c, err := w.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	terse := canon(`{"stencil":{"name":"laplace5"},"scheme":"online","grid":{"nx":256,"ny":256,"generator":"uniform","seed":7}}`)
	if len(terse) >= 1024 {
		t.Fatalf("canonical document of a 256x256 generator job is %d bytes, want under 1 KB", len(terse))
	}
	if !bytes.Contains(terse, []byte(`"generator":"uniform"`)) || bytes.Contains(terse, []byte(`"data"`)) {
		t.Fatalf("canonical document does not keep the generator reference: %s", terse)
	}
	explicit := canon(`{"elem":"float32","deployment":"","stencil":{"name":"laplace5","args":[0.2]},"bc":"clamp","bcValue":0,` +
		`"scheme":"online","epsilon":0,"period":0,"grid":{"nx":256,"ny":256,"nz":0,"generator":"uniform","seed":7,"value":3}}`)
	if !bytes.Equal(terse, explicit) {
		t.Fatalf("two spellings of one job canonicalize differently:\n%s\n%s", terse, explicit)
	}
	if Key(terse, 16) != Key(explicit, 16) {
		t.Fatal("two spellings of one job have different cache keys")
	}
	if other := canon(`{"stencil":{"name":"laplace5"},"scheme":"online","grid":{"nx":256,"ny":256,"generator":"uniform","seed":8}}`); bytes.Equal(terse, other) {
		t.Fatal("a different seed canonicalizes to the same document")
	}
}

// inlineJob is a POST /v1/jobs body carrying an n×n grid as inline data.
func inlineJob(n, iters int) []byte {
	data := make([]float64, n*n)
	for i := range data {
		data[i] = 100 + float64(i%13)
	}
	body, _ := json.Marshal(map[string]any{"iters": iters, "spec": map[string]any{
		"scheme": "online", "stencil": map[string]any{"name": "laplace5"},
		"grid": map[string]any{"nx": n, "ny": n, "data": data}}})
	return body
}

// settle POSTs body and waits for the job to reach a terminal state.
func settle(t *testing.T, srv *Server, ts *httptest.Server, body []byte) *Job {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST: status %d, %v", resp.StatusCode, err)
	}
	j, ok := srv.Scheduler().Job(st.ID)
	if !ok {
		t.Fatalf("job %s not registered", st.ID)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not settle", st.ID)
	}
	return j
}

// TestDispatcherParsesNothing: a 256x256 inline-data job submitted over
// HTTP is parsed exactly once on the host — at POST, where its layout is
// recorded — and still reaches the worker and finishes.
func TestDispatcherParsesNothing(t *testing.T) {
	parses := 0
	parseWireSpec = func(data []byte) (*abft.WireSpec, error) {
		parses++ // only the HTTP handler's goroutine may get here
		return abft.ParseWireSpec(data)
	}
	defer func() { parseWireSpec = abft.ParseWireSpec }()

	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	j := settle(t, srv, ts, inlineJob(256, 2))
	if j.State() != StateDone {
		t.Fatalf("job ended %s: %s", j.State(), j.Status().Error)
	}
	if parses != 1 {
		t.Fatalf("the host parsed the document %d times, want once (at POST)", parses)
	}
	if want := (Layout{Nx: 256, Ny: 256}); j.Layout != want {
		t.Fatalf("recorded layout %+v, want %+v", j.Layout, want)
	}

	// Submit takes bytes alone, so it derives the layout itself: one more.
	canonical, err := mustParse(t, `{"scheme":"online","deployment":"cluster","ranksX":2,"ranksY":1,`+
		`"stencil":{"name":"laplace5"},"grid":{"nx":16,"ny":16,"generator":"ramp"}}`).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	parses = 0
	j2, err := srv.Scheduler().Submit("t", "float32", canonical, 2)
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	if want := (Layout{Nx: 16, Ny: 16, GangRanks: 2}); parses != 1 || j2.Layout != want || j2.State() != StateDone {
		t.Fatalf("Submit from bytes: %d parses, layout %+v, state %s (%s)", parses, j2.Layout, j2.State(), j2.Status().Error)
	}
}

func mustParse(t *testing.T, doc string) *abft.WireSpec {
	t.Helper()
	w, err := abft.ParseWireSpec([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTerminalJobDropsItsInput: a retained job record stops pinning the
// canonical document once it is done or failed, and its status, result and
// event history still answer.
func TestTerminalJobDropsItsInput(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := settle(t, srv, ts, inlineJob(32, 3))
	// 16 ranks of one 16-row domain: thin tiles, which only Build rejects.
	failed := settle(t, srv, ts, []byte(`{"iters":3,"spec":{"scheme":"online","deployment":"cluster","ranks":16,`+
		`"stencil":{"name":"laplace5"},"grid":{"nx":16,"ny":16,"generator":"constant","value":100}}}`))
	if done.State() != StateDone || failed.State() != StateFailed {
		t.Fatalf("states %s / %s, want done / failed", done.State(), failed.State())
	}
	for _, j := range []*Job{done, failed} {
		if spec := j.spec(); spec != nil {
			t.Fatalf("%s job %s still holds its %d-byte document", j.State(), j.ID, len(spec))
		}
	}
	get := func(path string) (int, string) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/v1/jobs/" + done.ID); code != 200 || !strings.Contains(body, `"state":"done"`) {
		t.Fatalf("status of the done job: %d %s", code, body)
	}
	if code, body := get("/v1/jobs/" + done.ID + "/result"); code != 200 || !strings.Contains(body, `"data":[`) {
		t.Fatalf("result of the done job: %d %.80s", code, body)
	}
	if code, body := get("/v1/jobs/" + done.ID + "/events"); code != 200 || !strings.Contains(body, "event: done") {
		t.Fatalf("events of the done job: %d %.80s", code, body)
	}
	if code, body := get("/v1/jobs/" + failed.ID + "/result"); code != 400 || !strings.Contains(body, `"bad_request"`) {
		t.Fatalf("result of the failed job: %d %s", code, body)
	}
	if code, body := get("/v1/jobs/" + failed.ID + "/events"); code != 200 || !strings.Contains(body, "event: error") {
		t.Fatalf("events of the failed job: %d %.80s", code, body)
	}
}

// countingWriter counts the writes it takes and keeps their bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// v4Event is an event as protocol v4 encodes it: its kind, its header's
// length, its binary header, then its stats, grid and trace attachments.
func v4Event(t *testing.T, ev WorkerEvent) []byte {
	t.Helper()
	h := eventHeader{ID: ev.ID, Event: ev.Event, Iter: ev.Iter, Error: ev.Error, Status: ev.Status, TraceAttach: len(ev.Trace)}
	var st, raw []byte
	if ev.Stats != nil {
		var err error
		if st, err = ev.Stats.AppendBinary(nil); err != nil {
			t.Fatal(err)
		}
		h.StatsAttach = len(st)
	}
	if g := ev.Grid; g != nil {
		raw = g.Raw
		h.Has |= hasGrid
		h.Grid = gridShape{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, X0: g.X0, Y0: g.Y0, Elem: g.Elem}
		h.Attach = len(raw)
	}
	if ev.Ckpt != nil {
		h.Has |= hasCkpt
		h.Ckpt = *ev.Ckpt
	}
	return []byte(rawEvent(h, string(slices.Concat(st, raw, ev.Trace))))
}

// TestStreamWritesBursts: a request, and an event with small attachments,
// is one write; a stats event is held until 10 ms have passed since the
// request arrived or the last write-out, 32 are held, or any other event is
// sent, and then everything held goes out in one write, in order, byte for
// byte as the events encode one by one.
func TestStreamWritesBursts(t *testing.T) {
	var reqs countingWriter
	host := newStream(nil, &reqs)
	spec := []byte(`{"stencil":{"name":"laplace5"},"grid":{"nx":4,"ny":2,"generator":"ramp"}}`)
	for i := range 3 {
		if err := host.Send(JobRequest{ID: fmt.Sprint("j", i), Spec: spec, Iters: 2, StatsEvery: 1}); err != nil {
			t.Fatal(err)
		}
		if reqs.writes != i+1 {
			t.Fatalf("%d requests took %d writes, want one each", i+1, reqs.writes)
		}
	}

	var out countingWriter
	clock := time.Unix(1000, 0)
	worker := newStream(bytes.NewReader(reqs.Bytes()), &out)
	if worker.now == nil {
		t.Fatal("newStream left the clock unset")
	}
	worker.now = func() time.Time { return clock }
	if _, err := worker.readRequest(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	writes := 0
	send := func(ev WorkerEvent, wantWrite bool) {
		t.Helper()
		if err := worker.writeEvent(ev); err != nil {
			t.Fatal(err)
		}
		want = append(want, v4Event(t, ev)...)
		if wantWrite {
			writes++
		}
		if out.writes != writes {
			t.Fatalf("%s event %d: %d writes so far, want %d", ev.Event, ev.Iter, out.writes, writes)
		}
		if wantWrite && !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("%s event %d: the stream wrote\n%q\nwant\n%q", ev.Event, ev.Iter, out.Bytes(), want)
		}
	}
	st := fullStats()
	stat := func(i int) WorkerEvent { return WorkerEvent{ID: "j0", Event: "stats", Iter: i, Stats: &st} }

	// The 32-event rule: 31 held, the 32nd writes all of them.
	for i := 1; i < maxHeld; i++ {
		send(stat(i), false)
	}
	send(stat(maxHeld), true)
	// The 10 ms rule, counted from the last write-out.
	clock = clock.Add(holdFor - time.Nanosecond)
	send(stat(33), false)
	clock = clock.Add(time.Nanosecond)
	send(stat(34), true)
	// Any other event writes what is held ahead of itself.
	send(stat(35), false)
	send(WorkerEvent{ID: "j0", Event: "ckpt", Ckpt: &Checkpoint{Rank: 1, Gen: 35}}, true)
	send(stat(36), false)
	send(WorkerEvent{ID: "j0", Event: "error", Error: "serve: no", Status: 400}, true)

	// The 10 ms count restarts when a request arrives.
	clock = clock.Add(time.Hour)
	if _, err := worker.readRequest(); err != nil {
		t.Fatal(err)
	}
	send(stat(1), false)
	grid := &GridPayload{Nx: 4, Ny: 2, Elem: "float32", Raw: dist.AppendElems(nil, []float32{1, 2, 3, 4, 5, 6, 7, 8})}
	send(WorkerEvent{ID: "j1", Event: "done", Iter: 2, Stats: &st, Grid: grid}, true)

	// A grid over the buffer goes straight through after the held bytes.
	if _, err := worker.readRequest(); err != nil {
		t.Fatal(err)
	}
	send(stat(1), false)
	big := &GridPayload{Nx: directAttach, Ny: 1, Elem: "float32", Raw: dist.AppendElems(nil, make([]float32, directAttach))}
	if err := worker.writeEvent(WorkerEvent{ID: "j2", Event: "done", Iter: 2, Stats: &st, Grid: big}); err != nil {
		t.Fatal(err)
	}
	want = append(want, v4Event(t, WorkerEvent{ID: "j2", Event: "done", Iter: 2, Stats: &st, Grid: big})...)
	if out.writes != writes+2 || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("a done event with a %d-byte grid took %d writes, want 2, or changed its bytes", len(big.Raw), out.writes-writes)
	}
}

// TestStreamHoldsNothingAfterWorkerMain: every event of every job is
// written by the time WorkerMain returns — a job's held stats events go out
// with its done or error event.
func TestStreamHoldsNothingAfterWorkerMain(t *testing.T) {
	var reqs bytes.Buffer
	host := newStream(nil, &reqs)
	spec := []byte(`{"stencil":{"name":"laplace5"},"grid":{"nx":8,"ny":6,"generator":"ramp"}}`)
	for _, req := range []JobRequest{
		{ID: "ok", Spec: spec, Iters: 5, StatsEvery: 1},
		{ID: "bad", Spec: []byte(`{"stencil":{"name":"nope"}}`), Iters: 5, StatsEvery: 1},
		{ID: "again", Spec: spec, Iters: 3, StatsEvery: 2},
	} {
		if err := host.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := WorkerMain(&reqs, &out); err != nil {
		t.Fatal(err)
	}
	var got []string
	h := newStream(&out, io.Discard)
	for {
		ev, err := h.Recv()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s:%s:%d", ev.ID, ev.Event, ev.Iter))
	}
	want := "ok:stats:1 ok:stats:2 ok:stats:3 ok:stats:4 ok:stats:5 ok:done:5 bad:error:0 again:stats:2 again:stats:3 again:done:3"
	if strings.Join(got, " ") != want {
		t.Fatalf("WorkerMain wrote\n%s\nwant\n%s", strings.Join(got, " "), want)
	}
}
