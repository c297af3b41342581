package main

import (
	"bytes"
	"runtime"
	"time"
	"unsafe"

	abft "stencilabft"
	"stencilabft/internal/checksum"
	"stencilabft/internal/dist"
	"stencilabft/internal/grid"
	"stencilabft/internal/num"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// A probe calls one layer's exported function directly on the workload's
// own inputs, single-threaded, and reports the median of its timings.

// probeSamples is the least number of timings a probe's median rests on.
const probeSamples = 9

// timeIt samples the duration of fn in nanoseconds per call: at least
// probeSamples samples (cfg.quick: 2), more until the budget is spent, at
// most 101. A call shorter than 100 µs is batched so that clock resolution
// and call overhead stay below a percent of each sample.
func timeIt(cfg *config, budget time.Duration, fn func()) []float64 {
	fn() // warm caches, plans and lazily built tables
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	batch := 1
	if once < 100*time.Microsecond {
		batch = int(100*time.Microsecond/max(once, time.Nanosecond)) + 1
	}
	minN := probeSamples
	if cfg.quick {
		minN, budget = 2, 0
	}
	deadline := time.Now().Add(budget)
	var out []float64
	for len(out) < 101 && (len(out) < minN || time.Now().Before(deadline)) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		out = append(out, float64(time.Since(t0))/float64(batch))
	}
	return out
}

// mallocsPer returns heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// probeKernel measures the workload's stencil kernel against a copy of the
// same working set. Bytes and flops per cell are computed from the element
// size and the point count, not measured: compulsory traffic is one read
// and one write of the domain (plus one read of the constant field).
func probeKernel[T abft.Float](cfg *config, res *result, pb *problem[T], budget time.Duration) {
	per := budget / 4
	cells := float64(pb.cells())
	var zero T
	elem := float64(unsafe.Sizeof(zero))

	var sweep, generic, parallel func()
	var src, dst []T
	pool := &stencil.Pool{Workers: 2}
	defer pool.Close()
	if pb.is3D() {
		s, d := pb.init3.Clone(), pb.init3.Clone()
		op, gen := pb.op3d(), pb.op3d()
		gen.ForceGeneric = true
		sweep = func() { op.Sweep(d, s) }
		generic = func() { gen.Sweep(d, s) }
		parallel = func() { op.SweepParallel(pool, d, s, nil) }
		src, dst = s.Data(), d.Data()
	} else {
		s, d := pb.init2.Clone(), pb.init2.Clone()
		op, gen := pb.op2d(), pb.op2d()
		gen.ForceGeneric = true
		b := make([]T, s.Ny())
		sweep = func() { op.SweepFused(d, s, b) }
		generic = func() { gen.SweepFused(d, s, b) }
		parallel = func() { op.SweepParallel(pool, d, s, b) }
		src, dst = s.Data(), d.Data()
	}
	sw := summarize(timeIt(cfg, per, sweep))
	res.set("stencil.sweep_ns_per_cell", sw.scaled(1/cells))
	res.set("stencil.generic_ns_per_cell", summarize(timeIt(cfg, per, generic)).scaled(1/cells))
	par := summarize(timeIt(cfg, per, parallel))
	res.set("stencil.pool2_speedup", exact(sw.Value/par.Value))

	cp := timeIt(cfg, per, func() { copy(dst, src) })
	gbps := make([]float64, len(cp))
	for i, ns := range cp {
		gbps[i] = 2 * cells * elem / ns // bytes per ns = GB/s; read + write
	}
	copyRate := summarize(gbps)
	res.set("stencil.copy_gbps", copyRate)

	arrays := 2.0
	flops := float64(2*len(pb.st.Points) - 1)
	if pb.c3 != nil {
		arrays, flops = 3, flops+1
	}
	res.set("stencil.bytes_per_cell", exact(arrays*elem))
	res.set("stencil.flops_per_cell", exact(flops))
	// Time the copy would need for the kernel's compulsory bytes, over the
	// time the kernel takes: 1 means the kernel runs at the copy bound.
	res.set("stencil.bound_frac", exact(arrays*elem/copyRate.Value/(sw.Value/cells)))
}

// probeChecksum measures the pieces of one verification step on the
// workload's grid: interpolation of the column checksums, the direct
// checksum pass, the comparison, the offline scheme's edge capture, and the
// locate-and-correct slow path on one planted flip.
func probeChecksum[T abft.Float](cfg *config, res *result, pb *problem[T], budget time.Duration) error {
	per := budget / 5
	det := checksum.NewDetector[T]()
	var layers []*grid.Grid[T]
	var interp func()
	var radius int
	if pb.is3D() {
		g := pb.init3.Clone()
		nx, ny, nz := g.Nx(), g.Ny(), g.Nz()
		ip, err := checksum.NewInterp3D(pb.op3d(), nx, ny, nz)
		if err != nil {
			return err
		}
		radius = ip.EdgeRadius()
		prevB := make([][]T, nz)
		edges := make([]checksum.EdgeSource[T], nz)
		out := make([]T, ny)
		for z := 0; z < nz; z++ {
			layers = append(layers, g.Layer(z))
			prevB[z] = make([]T, ny)
			stencil.ChecksumB(g.Layer(z), prevB[z])
			edges[z] = checksum.LiveEdges(g.Layer(z), grid.Clamp, 0)
		}
		interp = func() {
			for z := 0; z < nz; z++ {
				ip.InterpolateB(z, prevB, edges, out)
			}
		}
	} else {
		g := pb.init2.Clone()
		ip, err := checksum.NewInterp2D(pb.op2d(), g.Nx(), g.Ny())
		if err != nil {
			return err
		}
		radius = ip.EdgeRadius()
		layers = []*grid.Grid[T]{g}
		prev := checksum.NewVectors[T](g.Nx(), g.Ny())
		prev.Compute(g)
		edges := checksum.LiveEdges(g, grid.Clamp, 0)
		out := make([]T, g.Ny())
		interp = func() { ip.InterpolateB(prev.B, edges, out) }
	}
	res.set("checksum.interp_ns_per_step", summarize(timeIt(cfg, per, interp)))

	nx, ny := layers[0].Nx(), layers[0].Ny()
	vec := checksum.NewVectors[T](nx, ny)
	direct := timeIt(cfg, per, func() {
		for _, l := range layers {
			vec.Compute(l)
		}
	})
	res.set("checksum.direct_ns_per_cell", summarize(direct).scaled(1/float64(pb.cells())))

	same := append([]T(nil), vec.B...)
	flagged := false
	res.set("checksum.detect_ns_per_step", summarize(timeIt(cfg, per, func() {
		for range layers {
			flagged = flagged || det.AnyMismatch(vec.B, same)
		}
	})))
	if flagged {
		res.fail("checksum probe: detector flagged identical vectors")
	}

	snap := checksum.NewEdgeSnapshot[T](nx, ny, radius, grid.Clamp, 0)
	res.set("checksum.edge_capture_ns_per_step", summarize(timeIt(cfg, per, func() {
		for _, l := range layers {
			snap.Capture(l)
		}
	})))

	// One planted flip on a copy of layer 0: the clean checksums stand in
	// for the interpolated ones, which is what they equal in a clean run.
	g := layers[0].Clone()
	clean := checksum.NewVectors[T](nx, ny)
	clean.Compute(g)
	dirty := checksum.NewVectors[T](nx, ny)
	x, y := nx/3, ny/2
	var zero T
	bit := 27 // a high exponent bit of float32 ...
	if unsafe.Sizeof(zero) == 8 {
		bit = 59 // ... and of float64
	}
	var corr checksum.Corrector[T]
	located := 0
	plant := func() {
		g.Set(x, y, num.FlipBit(g.At(x, y), bit))
		dirty.Compute(g)
	}
	fix := func() {
		am := det.Compare(dirty.A, clean.A)
		bm := det.Compare(dirty.B, clean.B)
		located += len(corr.CorrectAll(g, am, bm, checksum.PairByResidual, dirty, clean.A, clean.B))
	}
	var fixNs []float64
	n := probeSamples * 5
	if cfg.quick {
		n = 2
	}
	for i := 0; i < n; i++ {
		plant()
		t0 := time.Now()
		fix()
		fixNs = append(fixNs, float64(time.Since(t0)))
	}
	if located != n {
		res.fail("checksum probe: %d planted flips, %d located", n, located)
	}
	res.set("checksum.pair_correct_ns_per_fault", summarize(fixNs))
	return nil
}

// probeWire round-trips one 1024-element float64 halo strip through the
// TCP backend's frame codec: seal + CRC on write, parse + verify on read.
func probeWire(cfg *config, res *result, budget time.Duration) {
	payload := make([]byte, 1024*8)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	gen := uint32(0)
	bad := 0
	roundTrip := func() {
		buf.Reset()
		gen++
		err := dist.WriteWireFrame(&buf, dist.WireFrame{Kind: dist.FrameState, Gen: gen, Elem: 8, Payload: payload})
		f, rerr := dist.ReadWireFrame(&buf)
		if err != nil || rerr != nil || !bytes.Equal(f.Payload, payload) {
			bad++
		}
	}
	ns := timeIt(cfg, budget, roundTrip)
	res.set("dist.wire_roundtrip_ns", summarize(ns))
	res.set("dist.wire_mbps", exact(float64(len(payload))/median(ns)*1e3)) // B/ns → MB/s
	res.set("dist.wire_allocs_per_frame", exact(mallocsPer(100, roundTrip)))
	if bad > 0 {
		res.fail("wire probe: %d frame(s) did not round-trip", bad)
	}
}

// probeTransport ping-pongs one strip and one barrier between the two ranks
// of a bare transport: rank 0 on this goroutine, rank 1 on a peer that
// echoes. One iteration follows the transport contract — at most one send
// per direction, then the barrier.
func probeTransport[T abft.Float](cfg *config, res *result, tr dist.Transport[T], stripLen int, budget time.Duration) {
	rounds := 2000
	if cfg.quick {
		rounds = 20
	}
	strip := make([]T, stripLen)
	echo := make([]T, stripLen)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			copy(echo, tr.Recv(1, dist.Left))
			tr.Send(1, dist.Left, echo)
			tr.Barrier()
		}
	}()
	deadline := time.Now().Add(budget)
	var msg, bar []float64
	for i := 0; i < rounds; i++ {
		if time.Now().After(deadline) && i >= 200 {
			// Out of time: finish the peer's remaining rounds untimed.
			tr.Send(0, dist.Right, strip)
			tr.Recv(0, dist.Right)
			tr.Barrier()
			continue
		}
		t0 := time.Now()
		tr.Send(0, dist.Right, strip)
		tr.Recv(0, dist.Right)
		t1 := time.Now()
		tr.Barrier()
		t2 := time.Now()
		msg = append(msg, float64(t1.Sub(t0))/2) // two messages per round trip
		bar = append(bar, float64(t2.Sub(t1)))
	}
	<-done
	res.set("dist.sendrecv_ns", summarize(msg))
	res.set("dist.barrier_ns", summarize(bar))
}

// probeTelemetry prices one Begin/End pair of the program's phase recorder.
func probeTelemetry(cfg *config, res *result, budget time.Duration) {
	rec := telemetry.New(0).Recorder(0)
	res.set("telemetry.begin_end_ns", summarize(timeIt(cfg, budget, func() {
		rec.End(telemetry.PhaseSweep, rec.Begin())
	})))
}
