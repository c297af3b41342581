package campaign

import (
	"strings"
	"testing"
)

func TestFig9Renders(t *testing.T) {
	cfg := tinyConfig()
	cfg.Reps = 2
	var sb strings.Builder
	if err := Fig9([]TileConfig{cfg}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure 9", "Mean", "Median", "Max", "Rollbacks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig9 output missing %q:\n%s", want, out)
		}
	}
	// The unprotected bit-flip row must exist, and the protected rows
	// must report detections.
	if !strings.Contains(out, "No ABFT") {
		t.Fatalf("missing baseline row:\n%s", out)
	}
}

func TestFig11Renders(t *testing.T) {
	cfg := tinyConfig()
	cfg.Reps = 2
	cfg.Iterations = 16
	var sb strings.Builder
	if err := Fig11(cfg, []int{4, 8}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Figure 11") || !strings.Contains(out, "Error-free median") {
		t.Fatalf("Fig11 output malformed:\n%s", out)
	}
	// One row per period plus header/rule/title.
	if got := strings.Count(out, "\n"); got < 5 {
		t.Fatalf("Fig11 too short:\n%s", out)
	}
}

func TestAblationsRender(t *testing.T) {
	cfg := tinyConfig()
	var sb strings.Builder
	if err := Ablations(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Ablation A1", "Ablation A2", "Ablation A3", "Ablation A5", "Ablation A7", "Ablation A8",
		"noise floor vs chunk width",
		"dropped (paper listing)",
		"Kahan compensated",
		"residual matching (this library)",
		"rank-local repair on a 2x2 rank grid",
		"interior cross corner",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablations missing %q", want)
		}
	}
	// The locality sweep must be clean for every one of A7's six injection
	// sites: each row reports all 4 bit positions detected and repaired by
	// the owning rank ("4/4" — a partial row would render 0/4..3/4 and
	// lower the count), and no row carries the bystander-leak marker.
	if got := strings.Count(out, "4/4"); got != 6 {
		t.Fatalf("A7 rank-local repair rows: got %d clean sites, want 6:\n%s", got, out)
	}
	if strings.Contains(out, "LEAKED") {
		t.Fatalf("A7 detections leaked to bystander ranks:\n%s", out)
	}
}

func TestMethodStrings(t *testing.T) {
	names := map[Method]string{
		NoABFT:          "No ABFT",
		Online:          "ABFT (Online)",
		Offline:         "ABFT (Offline)",
		OnlinePaperEq10: "ABFT (Online, paper Eq.10)",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestPaperConfigsScale(t *testing.T) {
	full := PaperConfigs(1)
	if full[0].Nx != 64 || full[1].Nx != 512 || full[0].Iterations != 128 || full[1].Iterations != 256 {
		t.Fatalf("paper-scale configs wrong: %+v", full)
	}
	if full[0].Reps != 1000 || full[1].Reps != 100 {
		t.Fatalf("paper-scale repetitions wrong: %+v", full)
	}
	small := PaperConfigs(0.1)
	if small[0].Nx >= full[0].Nx || small[0].Reps >= full[0].Reps {
		t.Fatal("scaling did not shrink")
	}
	if small[0].Nz != 8 {
		t.Fatal("layer count must stay at the paper's 8")
	}
}

func TestFixedBitPlanDeterministic(t *testing.T) {
	r, err := NewRunner(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := r.FixedBitPlan(13, 7).Injections()[0]
	b := r.FixedBitPlan(13, 7).Injections()[0]
	if a != b {
		t.Fatal("fixed-bit plan not deterministic")
	}
	if a.Bit != 13 {
		t.Fatal("bit not fixed")
	}
	c := r.FixedBitPlan(13, 8).Injections()[0]
	if a == c {
		t.Fatal("different reps produced identical plans")
	}
}
