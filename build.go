package stencilabft

import (
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
)

// Protector is the unified contract every runner satisfies, regardless of
// scheme (none/online/offline/blocked), deployment (local/cluster) or
// dimensionality. Step advances one sweep — fault injection comes from the
// Spec, so it takes no arguments; Run advances count sweeps; Grid and
// Grid3D expose the current state (the accessor matching the spec's
// dimensionality returns the domain, the other returns nil; a Clustered
// protector gathers on each Grid call); Finalize discharges end-of-run
// obligations (the offline schemes verify any partial period; everything
// else no-ops), folding the old Finalizer type-assertion into the contract.
type Protector[T Float] interface {
	Step()
	Run(count int)
	Grid() *Grid[T]
	Grid3D() *Grid3D[T]
	Iter() int
	Stats() Stats
	Finalize()
}

// Compile-time conformance checks: all five core protectors and the clusters
// satisfy the unified contract for both element types (Blocked2D is
// Online2D; core.Offline, which the Offline scheme builds, serves both
// dimensionalities and has no root alias because the Scheme constant holds
// the name).
var (
	_ Protector[float32] = (*None2D[float32])(nil)
	_ Protector[float32] = (*Online2D[float32])(nil)
	_ Protector[float32] = (*core.Offline[float32])(nil)
	_ Protector[float32] = (*None3D[float32])(nil)
	_ Protector[float32] = (*Online3D[float32])(nil)
	_ Protector[float32] = (*Cluster[float32])(nil)
	_ Protector[float32] = (*Cluster3D[float32])(nil)
	_ Protector[float64] = (*None2D[float64])(nil)
	_ Protector[float64] = (*Online2D[float64])(nil)
	_ Protector[float64] = (*core.Offline[float64])(nil)
	_ Protector[float64] = (*None3D[float64])(nil)
	_ Protector[float64] = (*Online3D[float64])(nil)
	_ Protector[float64] = (*Cluster[float64])(nil)
	_ Protector[float64] = (*Cluster3D[float64])(nil)
)

// Build constructs the protector declared by spec — the single factory
// behind every scheme × deployment × dimensionality combination. The
// concrete type is the matching protector (e.g. *Online2D, *Cluster), so
// callers needing scheme-specific extras can type-assert, but the unified
// Protector surface covers the whole run lifecycle.
func Build[T Float](spec Spec[T]) (Protector[T], error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	switch spec.Deployment {
	case Local:
		switch spec.Scheme {
		case None:
			return buildNone(spec)
		case Online:
			return buildOnline(spec)
		case Offline:
			return buildOffline(spec)
		case Blocked:
			return buildBlocked(spec)
		}
	case Clustered:
		if spec.Scheme == Online {
			return buildCluster(spec)
		}
	}
	return nil, kindErrorf(ErrUnsupportedCombination, "stencilabft: unsupported combination %s/%s (supported: none/local, online/local, offline/local, blocked/local, online/cluster)",
		spec.Scheme, spec.Deployment)
}

func buildNone[T Float](spec Spec[T]) (Protector[T], error) {
	if spec.is3D() {
		return core.NewNone3D(spec.Op3D, spec.Init3D, spec.coreOptions())
	}
	return core.NewNone2D(spec.Op2D, spec.Init, spec.coreOptions())
}

func buildOnline[T Float](spec Spec[T]) (Protector[T], error) {
	if spec.is3D() {
		return core.NewOnline3D(spec.Op3D, spec.Init3D, spec.coreOptions())
	}
	return core.NewOnline2D(spec.Op2D, spec.Init, spec.coreOptions())
}

func buildOffline[T Float](spec Spec[T]) (Protector[T], error) {
	if spec.is3D() {
		return core.NewOffline3D(spec.Op3D, spec.Init3D, spec.coreOptions())
	}
	return core.NewOffline2D(spec.Op2D, spec.Init, spec.coreOptions())
}

func buildBlocked[T Float](spec Spec[T]) (Protector[T], error) {
	return core.NewBlocked2D(spec.Op2D, spec.Init, spec.BlockX, spec.BlockY, spec.coreOptions())
}

func buildCluster[T Float](spec Spec[T]) (Protector[T], error) {
	if spec.is3D() {
		return dist.NewCluster3D(spec.Op3D, spec.Init3D, spec.Ranks, spec.distOptions())
	}
	rx, ry := spec.rankGrid()
	opt := spec.distOptions()
	if spec.Transport == TransportTCP {
		// Validate the decomposition before opening any socket, so a
		// malformed spec fails without leaking a half-bootstrapped
		// transport (and without making peer processes wait for us).
		d := dist.Decomp{Nx: spec.Init.Nx(), Ny: spec.Init.Ny(), RanksX: rx, RanksY: ry}
		depth := spec.HaloDepth
		if depth < 1 {
			depth = 1
		}
		if err := d.ValidateDepth(spec.Op2D.St.RadiusX(), spec.Op2D.St.RadiusY(), depth); err != nil {
			return nil, err
		}
		local := []int{spec.Rank}
		tr, err := dist.NewTCPTransport[T](dist.TCPConfig{
			RanksX: rx, RanksY: ry, Ring: spec.Op2D.BC == Periodic,
			LocalRanks: local, Rendezvous: spec.Rendezvous, Bind: spec.Bind,
			WrapConn: spec.WrapConn,
		})
		if err != nil {
			return nil, err
		}
		opt.LocalRanks = local
		opt.NewTransport = func(int, int, bool) Transport[T] { return tr }
		c, err := dist.NewClusterGrid(spec.Op2D, spec.Init, rx, ry, opt)
		if err != nil {
			tr.Close()
			return nil, err
		}
		return c, nil
	}
	return dist.NewClusterGrid(spec.Op2D, spec.Init, rx, ry, opt)
}
