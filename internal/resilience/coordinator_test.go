package resilience

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"stencilabft/internal/dist"
)

// TestLateReportRefused pins the coordinator's answer to the n-th report
// of a fault every rank saw (a broken edge between two live ranks): the
// round closes at n-1 reports and declares the last rank dead, and that
// rank's report, from the epoch the round closed, gets an error plan at
// once. It is never parked, so it neither counts in the next round's
// elimination nor arms the disk escalation's stall clock.
func TestLateReportRefused(t *testing.T) {
	const timeout = 5 * time.Second
	respawned := make(chan Plan, 4) // one a rank: none may block
	co, err := StartCoordinator(CoordinatorConfig{
		RanksX: 2, RanksY: 2, Timeout: timeout,
		DiskDir: t.TempDir(), StallWait: time.Hour,
		Respawn: func(p Plan) error {
			respawned <- p
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// Three of the four ranks decide the round.
	var wg sync.WaitGroup
	got := make([]Plan, 3)
	errs := make([]error, 3)
	for r := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r], errs[r] = ReportFault[float64](co.Addr(), Report{Rank: r, Suspect: -1}, nil, timeout)
		}()
	}
	wg.Wait()
	for r := range 3 {
		if errs[r] != nil || got[r].Dead != 3 || got[r].Epoch != 1 {
			t.Fatalf("rank %d's plan %+v, %v: want rank 3 declared dead, epoch 1", r, got[r], errs[r])
		}
	}

	// The fourth, from epoch 0, is answered at once.
	t0 := time.Now()
	plan, err := ReportFault[float64](co.Addr(), Report{Rank: 3, Suspect: 1}, nil, timeout)
	if err == nil || plan.Err == "" || !strings.Contains(err.Error(), "round has closed") {
		t.Fatalf("late report answered %+v, %v; want an error plan", plan, err)
	}
	if took := time.Since(t0); took > timeout/5 {
		t.Fatalf("the late report waited %v for its answer", took)
	}
	co.mu.Lock()
	parked, stall := len(co.reports), co.stall != nil
	co.mu.Unlock()
	if parked != 0 || stall {
		t.Fatalf("after the late report: %d reports parked, stall clock armed %v; want none", parked, stall)
	}

	// The next round's elimination counts only its own epoch's reports.
	conn, err := net.Dial("tcp", co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := dist.WriteJSONFrame(conn, dist.FrameDead, Report{Rank: 0, Epoch: 1, Suspect: -1}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		co.mu.Lock()
		seen := co.reported()
		co.mu.Unlock()
		if len(seen) > 0 {
			if len(seen) != 1 || !seen[0] {
				t.Fatalf("the next round counts ranks %v, want only rank 0", seen)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the epoch-1 report never registered")
		}
	}
	select {
	case p := <-respawned:
		if p.Dead != 3 {
			t.Fatalf("respawned rank %d, want rank 3", p.Dead)
		}
	case <-time.After(timeout):
		t.Fatal("the round respawned no rank")
	}
	select {
	case p := <-respawned:
		t.Fatalf("a second respawn %+v, want rank 3 once", p)
	default:
	}
}
