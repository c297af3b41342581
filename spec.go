package stencilabft

import (
	"io"
	"net"
	"time"

	"stencilabft/internal/checksum"
	"stencilabft/internal/core"
	"stencilabft/internal/dist"
	"stencilabft/internal/stencil"
	"stencilabft/internal/telemetry"
)

// Scheme selects the protection method — the rows of the paper's
// evaluation matrix.
type Scheme string

// Protection schemes.
const (
	// None is the unprotected baseline runner.
	None Scheme = "none"
	// Online verifies after every sweep and corrects on the fly
	// (Section 3): lowest time-to-detection, no checkpoint memory, a
	// small floating-point residual after repair.
	Online Scheme = "online"
	// Offline verifies every Period sweeps and recovers by rollback to an
	// in-memory checkpoint and recomputation (Section 4): the error is
	// erased exactly, at the cost of checkpoint memory and a
	// recomputation spike.
	Offline Scheme = "offline"
	// Blocked applies the online scheme per tile of a 2-D domain
	// (Section 3.4): each block owns its checksums, keeping magnitudes —
	// and with them the floating-point detection floor — low.
	Blocked Scheme = "blocked"
)

// ParseScheme converts a CLI-style mode name into a Scheme.
func ParseScheme(name string) (Scheme, error) {
	switch Scheme(name) {
	case None, Online, Offline, Blocked:
		return Scheme(name), nil
	default:
		return "", kindErrorf(ErrUnknownScheme, "stencilabft: unknown scheme %q (want none|online|offline|blocked)", name)
	}
}

// Deployment selects where the protected computation runs.
type Deployment string

// Deployments.
const (
	// Local runs in-process on one domain (optionally over a worker Pool).
	Local Deployment = "local"
	// Clustered decomposes the domain over simulated ranks exchanging halo
	// strips through the Transport seam, each rank running the online
	// scheme independently — the paper's distributed-memory setting. The
	// decomposition shape follows the domain: a Cartesian rank grid (2-D;
	// its 1-column case is the paper's row bands) or z-layer slabs (3-D).
	Clustered Deployment = "cluster"
)

// ParseDeployment converts a CLI-style deployment name into a Deployment.
func ParseDeployment(name string) (Deployment, error) {
	switch Deployment(name) {
	case Local, Clustered:
		return Deployment(name), nil
	default:
		return "", kindErrorf(ErrUnknownDeployment, "stencilabft: unknown deployment %q (want local|cluster)", name)
	}
}

// TransportKind names a Clustered deployment's communication backend — the
// CLI-facing selector behind Spec.Transport.
type TransportKind string

// Transport backends.
const (
	// TransportChan is the default in-process backend: ranks are
	// goroutines wired with paired channels. One process, zero sockets.
	TransportChan TransportKind = "chan"
	// TransportTCP is the socket backend: each rank is hosted by a real OS
	// process (Spec.Rank names the one this process runs) and halo strips,
	// barrier tokens and the bootstrap travel over loopback or LAN TCP
	// connections meeting at Spec.Rendezvous — the deployment the paper's
	// distributed-memory cost model assumes.
	TransportTCP TransportKind = "tcp"
)

// ParseTransport converts a CLI-style transport name into a TransportKind.
func ParseTransport(name string) (TransportKind, error) {
	switch TransportKind(name) {
	case TransportChan, TransportTCP:
		return TransportKind(name), nil
	default:
		return "", kindErrorf(ErrUnknownTransport, "stencilabft: unknown transport %q (want chan|tcp)", name)
	}
}

// Spec declares a protected stencil run: which scheme, where it runs, the
// operator and initial domain, and every tunable the schemes share. It is
// the single input of Build; the zero values of Scheme and Deployment mean
// None and Local, and every knob left zero keeps the paper's defaults
// (epsilon 1e-5, residual pairing, Δ=16, sequential execution, channel
// transport).
//
// Scheme-scoped tunables (Detector, Period, Recovery,
// PaperExactCorrection) are deliberately ignored by schemes that do not
// use them, so one Spec can sweep Scheme across a campaign while holding
// every other knob fixed — the pattern the paper's evaluation harness
// relies on. Deployment-mismatched knobs, by contrast, are hard Build
// errors (Ranks/RanksX/RanksY or Transport on a Local run,
// Period/Recovery/PaperExactCorrection or BlockX/BlockY on a Clustered
// one): there is no seam for them, and silently dropping them would run a
// different experiment than the spec declares.
type Spec[T Float] struct {
	Scheme     Scheme
	Deployment Deployment

	// Exactly one dimensionality must be set: Op2D with Init, or Op3D
	// with Init3D. The initial grid is copied; the caller's grid is not
	// retained.
	Op2D   *Op2D[T]
	Init   *Grid[T]
	Op3D   *Op3D[T]
	Init3D *Grid3D[T]

	// Detector compares direct against interpolated checksums; the zero
	// value uses the paper's epsilon 1e-5 with an absolute floor of 1.
	Detector Detector[T]
	// PairPolicy selects multi-error pairing (default PairByResidual).
	PairPolicy PairPolicy
	// Pool partitions sweeps over workers; nil runs sequentially.
	Pool *Pool
	// Period is the offline detection/checkpoint period Δ (default 16).
	Period int
	// Recovery selects the offline repair strategy (FullRollback or
	// ConeRecovery), for 2-D and 3-D domains alike.
	Recovery RecoveryMode
	// Ranks is the Nx1 shorthand of a Clustered deployment's rank count:
	// for a 2-D domain it declares Ranks row bands (a Ranks-by-1 grid),
	// for a 3-D domain the number of z-layer slabs. Mutually exclusive
	// with RanksX/RanksY.
	Ranks int
	// RanksX, RanksY shape the 2-D Cartesian rank grid of a Clustered
	// deployment: RanksX columns (splitting the domain's x axis) by RanksY
	// rows (splitting y). Set both, or use the Ranks shorthand instead.
	RanksX, RanksY int
	// HaloDepth selects depth-k ghost zones for a Clustered 2-D grid
	// deployment: halo strips k·radius wide exchanged once every k
	// iterations, with the ranks redundantly recomputing shrinking
	// boundary shells in between — the communication-avoiding trade of
	// the ghost-zone literature. 0 and 1 both mean the classic
	// exchange-every-iteration schedule; fault-free results are
	// bit-identical at every depth. Checkpoint periods must be multiples
	// of HaloDepth so restores land on exchange boundaries.
	HaloDepth int
	// BlockX, BlockY set the nominal tile size of the Blocked scheme
	// (required ≥ 1; edge tiles may differ).
	BlockX, BlockY int

	// Inject schedules planned bit-flips in domain coordinates; Step and
	// Run apply them at the matching iterations. Under a Clustered
	// deployment each injection is routed to the rank owning its tile (or
	// z-layer slab).
	Inject *Plan
	// InjectSource plugs a custom per-iteration fault source instead of a
	// declarative plan (Local deployments only — a Clustered run needs
	// routable coordinates, use Inject). Takes precedence over Inject.
	InjectSource InjectSource[T]

	// Transport selects a Clustered deployment's communication backend by
	// name: TransportChan (the default — simulated ranks as goroutines) or
	// TransportTCP (each rank a real OS process; requires Rank and
	// Rendezvous, 2-D domains only).
	Transport TransportKind
	// Rank is the single rank of the grid this process hosts under
	// TransportTCP; the other ranks live in peer processes built from the
	// same Spec with their own Rank. Grid, Gather and Stats then cover
	// this rank's tile only.
	Rank int
	// Rendezvous is the host:port the TCP cluster's processes meet at to
	// exchange data-listener addresses. The process with Rank 0 binds and
	// serves it; the others dial it with retry.
	Rendezvous string
	// Bind is the address this process's TCP data listener binds and
	// advertises (default "127.0.0.1:0" — loopback clusters). For a
	// multi-host cluster bind the routable interface the peers can dial,
	// e.g. "10.0.0.5:0": the listener's resolved address is what gets
	// published at the rendezvous.
	Bind string
	// NewTransport plugs a custom communication backend (e.g. a tracing or
	// delaying wrapper); it takes precedence over Transport, which must
	// then be left empty. It receives the rank-grid shape (columns × rows;
	// a 3-D layer cluster passes its slab chain as 1 × Ranks) and whether
	// periodic boundaries close the grid into a torus. See dist.Transport.
	NewTransport func(ranksX, ranksY int, ring bool) Transport[T]
	// WrapTransport layers a wrapper over whichever backend the cluster
	// builds — tracing, delaying, or chaos fault injection — without
	// replacing the backend itself. It composes with Transport and
	// NewTransport alike. Clustered deployments only.
	WrapTransport func(tr Transport[T], ranksX, ranksY int, ring bool) Transport[T]
	// RecvTimeout bounds each blocking halo/checkpoint receive so a stalled
	// or dead sibling rank surfaces as a classified fault instead of a
	// hang, on whichever backend the cluster runs over (Transport,
	// NewTransport). Zero keeps the backend's default (the channel backend
	// then waits forever, the tcp backend applies its 2-minute deadline).
	// Clustered deployments only.
	RecvTimeout time.Duration
	// WrapConn hooks every outbound tcp data connection as it is
	// established — the seam wire-level chaos injection rides
	// (TCPConfig.WrapConn).
	// TransportTCP only.
	WrapConn func(conn net.Conn, from, to int, d Dir) net.Conn

	// DropBoundaryTerms reproduces the paper's simplified listings
	// (ablation A1); leave false for exact interpolation.
	DropBoundaryTerms bool
	// PaperExactCorrection uses the paper's literal Equation (10)
	// evaluation (Section 5.3's overflow-scale caveat) for every online
	// detection of a Local run — Online and, through the chunk's shared
	// repair tail, Blocked; the default is the numerically stable
	// equivalent after re-evaluating the flagged rows.
	PaperExactCorrection bool

	// AfterStep, when non-nil, runs on each rank's goroutine after its
	// sweep completes and before the iteration barrier — the seam buddy
	// checkpointing (internal/resilience) hangs off, so checkpoint traffic
	// overlaps the barrier wait. Clustered deployments only.
	AfterStep func(rank, iter int)

	// Telemetry, when non-nil, records per-rank phase timings and span
	// timelines (see NewTelemetry). A Clustered deployment registers one
	// Recorder per rank; Local protectors record as rank 0. The per-rank
	// breakdown lands on Stats.Timing (RankStats carries each rank's own),
	// the span timeline exports as a Chrome trace via WriteTrace. Nil
	// disables telemetry entirely — the hot path then pays only nil checks.
	Telemetry *Telemetry

	// generated is the resolved generator reference SpecFromWire built
	// Init/Init3D from, or nil. Wire re-emits it in place of the inline
	// values while the grid still holds exactly the generator's bits.
	generated *WireGrid
	// unbuilt marks a spec WireSpec.Canonical resolved without building
	// its generated domain: Init/Init3D are nil and generated stands in.
	unbuilt bool
}

// withDefaults returns a copy with the zero Scheme and Deployment resolved.
func (s Spec[T]) withDefaults() Spec[T] {
	if s.Scheme == "" {
		s.Scheme = None
	}
	if s.Deployment == "" {
		s.Deployment = Local
	}
	return s
}

// is3D reports whether the spec declares a 3-D run.
func (s Spec[T]) is3D() bool { return s.Op3D != nil || s.Init3D != nil }

// validate rejects malformed and unsupported specs with a caller-actionable
// error. It assumes withDefaults has run.
func (s Spec[T]) validate() error {
	if _, err := ParseScheme(string(s.Scheme)); err != nil {
		return err
	}
	if _, err := ParseDeployment(string(s.Deployment)); err != nil {
		return err
	}
	has2D := s.Op2D != nil || s.Init != nil
	has3D := s.is3D()
	if has2D && has3D {
		return specErrorf("stencilabft: spec sets both 2-D and 3-D fields; choose Op2D/Init or Op3D/Init3D")
	}
	if !has2D && !has3D {
		return specErrorf("stencilabft: spec needs an operator and an initial grid (Op2D/Init or Op3D/Init3D)")
	}
	if has2D && (s.Op2D == nil || s.Init == nil && !s.unbuilt) {
		return specErrorf("stencilabft: 2-D spec needs both Op2D and Init")
	}
	if has3D && (s.Op3D == nil || s.Init3D == nil && !s.unbuilt) {
		return specErrorf("stencilabft: 3-D spec needs both Op3D and Init3D")
	}
	if s.Deployment == Clustered {
		if s.Scheme != Online {
			return specErrorf("stencilabft: the cluster deployment protects with the online scheme only (got %q)", s.Scheme)
		}
		hasGrid := s.RanksX != 0 || s.RanksY != 0
		if s.Ranks != 0 && hasGrid {
			return specErrorf("stencilabft: set either Ranks (the Nx1 shorthand) or RanksX/RanksY, not both (got Ranks %d with grid %dx%d)",
				s.Ranks, s.RanksY, s.RanksX)
		}
		if has3D {
			if hasGrid {
				return specErrorf("stencilabft: RanksX/RanksY shape 2-D rank grids; a layer cluster takes its slab count from Ranks")
			}
			if s.Ranks < 1 {
				return specErrorf("stencilabft: layer cluster needs Ranks >= 1 (got %d)", s.Ranks)
			}
		} else {
			rx, ry := s.rankGrid()
			if rx < 1 || ry < 1 {
				return specErrorf("stencilabft: cluster deployment needs Ranks >= 1 or a RanksX x RanksY grid with both factors >= 1 (got Ranks %d, grid %dx%d)",
					s.Ranks, s.RanksY, s.RanksX)
			}
		}
		if s.InjectSource != nil {
			return specErrorf("stencilabft: InjectSource is local-only; cluster injection routes a Plan (set Inject)")
		}
		if s.HaloDepth < 0 {
			return specErrorf("stencilabft: HaloDepth %d is invalid; use 0 or 1 for the classic exchange-every-iteration schedule, k > 1 for depth-k ghost zones", s.HaloDepth)
		}
		if s.HaloDepth > 1 && has3D {
			return specErrorf("stencilabft: HaloDepth %d (depth-k ghost zones) supports 2-D rank grids only; the 3-D layer cluster exchanges every iteration", s.HaloDepth)
		}
		if s.Transport != "" {
			if _, err := ParseTransport(string(s.Transport)); err != nil {
				return err
			}
			if s.NewTransport != nil {
				return specErrorf("stencilabft: set either Transport (a named backend) or NewTransport (a custom factory), not both")
			}
		}
		if s.Transport == TransportTCP {
			if has3D {
				return specErrorf("stencilabft: the tcp transport hosts one rank per process and supports 2-D rank grids only (the 3-D layer cluster runs in-process)")
			}
			if s.Rendezvous == "" {
				return specErrorf("stencilabft: the tcp transport needs Rendezvous (host:port every rank process meets at)")
			}
			rx, ry := s.rankGrid()
			if s.Rank < 0 || s.Rank >= rx*ry {
				return specErrorf("stencilabft: Rank %d outside the %d-rank tcp cluster (grid %dx%d)", s.Rank, rx*ry, ry, rx)
			}
		} else {
			if s.WrapConn != nil {
				return specErrorf("stencilabft: WrapConn hooks the tcp transport's connections only (set Transport: TransportTCP)")
			}
			if s.Rendezvous != "" {
				return specErrorf("stencilabft: Rendezvous applies to the tcp transport only (set Transport: TransportTCP)")
			}
			if s.Rank != 0 {
				return specErrorf("stencilabft: Rank selects this process's rank under the tcp transport only (set Transport: TransportTCP)")
			}
			if s.Bind != "" {
				return specErrorf("stencilabft: Bind shapes the tcp transport's data listener only (set Transport: TransportTCP)")
			}
		}
		// Knobs the per-rank online protection has no seam for: reject
		// them loudly rather than silently running a different experiment
		// than the spec appears to declare.
		if s.Period != 0 {
			return specErrorf("stencilabft: Period applies to the offline scheme; the cluster deployment is online-only")
		}
		if s.Recovery != FullRollback {
			return specErrorf("stencilabft: Recovery applies to the offline scheme; the cluster deployment is online-only")
		}
		if s.PaperExactCorrection {
			return specErrorf("stencilabft: PaperExactCorrection is not supported by the cluster deployment (ranks always use the stable correction)")
		}
	} else {
		if s.AfterStep != nil {
			return specErrorf("stencilabft: AfterStep hooks the cluster deployment's rank loop only")
		}
		if s.Ranks != 0 || s.RanksX != 0 || s.RanksY != 0 {
			return specErrorf("stencilabft: Ranks/RanksX/RanksY apply to the cluster deployment only (deployment %q with %d/%d/%d)",
				s.Deployment, s.Ranks, s.RanksX, s.RanksY)
		}
		if s.HaloDepth != 0 {
			return specErrorf("stencilabft: HaloDepth applies to the cluster deployment only (deployment %q with depth %d)", s.Deployment, s.HaloDepth)
		}
		if s.Transport != "" || s.NewTransport != nil {
			return specErrorf("stencilabft: Transport/NewTransport apply to the cluster deployment only")
		}
		if s.WrapTransport != nil || s.RecvTimeout != 0 {
			return specErrorf("stencilabft: WrapTransport/RecvTimeout apply to the cluster deployment only")
		}
		if s.WrapConn != nil {
			return specErrorf("stencilabft: WrapConn applies to the cluster deployment's tcp transport only")
		}
		if s.Rendezvous != "" || s.Rank != 0 || s.Bind != "" {
			return specErrorf("stencilabft: Rank/Rendezvous/Bind apply to the cluster deployment's tcp transport only")
		}
	}
	if s.Scheme == Blocked {
		if has3D {
			return specErrorf("stencilabft: the blocked scheme tiles 2-D domains only")
		}
		if s.BlockX < 1 || s.BlockY < 1 {
			return specErrorf("stencilabft: blocked scheme needs BlockX and BlockY >= 1 (got %dx%d)", s.BlockX, s.BlockY)
		}
	} else if s.BlockX != 0 || s.BlockY != 0 {
		return specErrorf("stencilabft: BlockX/BlockY apply to the blocked scheme only (scheme %q with %dx%d blocks)",
			s.Scheme, s.BlockX, s.BlockY)
	}
	return nil
}

// Validate checks the spec exactly as Build would — defaults applied, then
// the full validation pass — without constructing anything. A service
// front-end calls it at admission time so a malformed spec is rejected with
// a typed error (errors.Is: ErrInvalidSpec and friends) before a worker is
// ever scheduled. Geometry checks that need the concrete deployment (e.g.
// ErrThinTile) still surface from Build.
func (s Spec[T]) Validate() error {
	s = s.withDefaults()
	return s.validate()
}

// rankGrid resolves the 2-D rank-grid shape (columns, rows): RanksX/RanksY
// when set, else the Ranks shorthand as Ranks row bands (a 1-column grid).
func (s Spec[T]) rankGrid() (ranksX, ranksY int) {
	if s.RanksX != 0 || s.RanksY != 0 {
		return s.RanksX, s.RanksY
	}
	return 1, s.Ranks
}

// injectSource resolves the spec's fault configuration to the per-iteration
// site seam local protectors consume.
func (s Spec[T]) injectSource() InjectSource[T] {
	if s.InjectSource != nil {
		return s.InjectSource
	}
	if s.Inject != nil {
		return NewInjector[T](s.Inject)
	}
	return nil
}

// coreOptions maps the shared knobs onto the core protectors' options — every
// Local scheme's, Blocked included.
func (s Spec[T]) coreOptions() core.Options[T] {
	return core.Options[T]{
		Detector:             s.Detector,
		PairPolicy:           s.PairPolicy,
		Pool:                 s.Pool,
		Period:               s.Period,
		DropBoundaryTerms:    s.DropBoundaryTerms,
		PaperExactCorrection: s.PaperExactCorrection,
		Recovery:             s.Recovery,
		Inject:               s.injectSource(),
		Telemetry:            s.Telemetry.Recorder(0),
	}
}

// distOptions maps the shared knobs onto the cluster's options. The tcp
// transport and its one-rank hosting are filled in by Build, which owns
// the socket bootstrap.
func (s Spec[T]) distOptions() dist.Options[T] {
	return dist.Options[T]{
		Detector:          s.Detector,
		PairPolicy:        s.PairPolicy,
		Pool:              s.Pool,
		DropBoundaryTerms: s.DropBoundaryTerms,
		HaloDepth:         s.HaloDepth,
		Inject:            s.Inject,
		RecvTimeout:       s.RecvTimeout,
		NewTransport:      s.NewTransport,
		WrapTransport:     s.WrapTransport,
		AfterStep:         s.AfterStep,
		Telemetry:         s.Telemetry,
	}
}

// Telemetry collects per-rank phase timers and span timelines for one run;
// build one with NewTelemetry, set it on Spec.Telemetry, and export through
// WriteTrace / WritePrometheus / Stats.Timing after (or during — the phase
// accumulators are safe to scrape live) the run.
type Telemetry = telemetry.Collector

// Recorder is one rank's telemetry handle: phase accumulators plus a
// fixed-capacity span ring. A nil Recorder is a no-op, which is how
// disabled telemetry stays free on the hot path.
type Recorder = telemetry.Recorder

// NewTelemetry builds a telemetry collector whose per-rank span rings hold
// spanCap spans each (0 picks the 4096 default; negative disables span
// recording, keeping only the phase accumulators).
func NewTelemetry(spanCap int) *Telemetry { return telemetry.New(spanCap) }

// WriteTrace exports a collector's span timeline as Chrome trace-event JSON
// (open in chrome://tracing or https://ui.perfetto.dev): one lane per rank,
// one slice per recorded phase interval. A nil collector writes an empty
// but valid trace.
func WriteTrace(w io.Writer, c *Telemetry) error { return c.WriteTrace(w) }

// PairPolicy selects how simultaneous multi-error mismatches are paired
// into locations (PairByResidual, the robust default, or PairByIndex, the
// paper's Figure 6 ordering).
type PairPolicy = checksum.PairPolicy

// Pairing policies.
const (
	PairByResidual = checksum.PairByResidual
	PairByIndex    = checksum.PairByIndex
)

// InjectSource yields the fault-injection sites a protector's sweep applies
// each iteration (SitesFor(iter) []Site[T]) — the pluggable seam behind
// Spec.InjectSource and Options.Inject. An Injector (NewInjector) is the
// standard implementation.
type InjectSource[T Float] = stencil.InjectSource[T]

// Site is one injected fault: a cell (Z = 0 in 2-D) and the mutation of the
// value the sweep stored there. The fused checksum covers the mutated value,
// exactly as if it had been corrupted before the store.
type Site[T Float] = stencil.Site[T]

// Transport is the cluster's communication seam: send/recv of halo strips
// in all four directions plus the iteration barrier. The in-process
// channel backend is the default; the TCP backend (Spec.Transport:
// TransportTCP) runs each rank as a real OS process; custom backends
// implement this interface and plug in via Spec.NewTransport. See the dist
// package for the full contract.
type Transport[T Float] = dist.Transport[T]

// Dir is a halo direction (Up/Down/Left/Right) as the transport seam sees
// it — exported for Spec.WrapConn hooks. See dist.Dir.
type Dir = dist.Dir

// NewChanTransport returns the default in-process paired-channel transport
// for a ranksX-by-ranksY rank grid — exported so custom transports can
// wrap it (e.g. to trace or delay messages) before handing it to
// Spec.NewTransport. A 1-D band or layer chain is the (1, nRanks) shape.
func NewChanTransport[T Float](ranksX, ranksY int, ring bool) *dist.ChanTransport[T] {
	return dist.NewChanTransport[T](ranksX, ranksY, ring)
}

// TCPConfig configures a stand-alone TCP transport built with
// NewTCPTransport — the escape hatch for hosting several ranks in one
// process or tuning bootstrap deadlines; Build's TransportTCP path covers
// the common one-rank-per-process case without it.
type TCPConfig = dist.TCPConfig

// NewTCPTransport bootstraps the socket Transport backend directly (see
// dist.NewTCPTransport). Hand the result to Spec.NewTransport, and Close
// it when the run is over.
func NewTCPTransport[T Float](cfg TCPConfig) (*dist.TCPTransport[T], error) {
	return dist.NewTCPTransport[T](cfg)
}
