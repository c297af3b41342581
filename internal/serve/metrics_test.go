package serve

import (
	"bytes"
	"os"
	"testing"

	"stencilabft/internal/stats"
)

// TestMetricsPrometheusGolden holds the /metrics page to the bytes it had
// before it was routed through telemetry.PromWriter: the CI curl | grep
// gates and any dashboard parse this text.
func TestMetricsPrometheusGolden(t *testing.T) {
	m := NewMetrics()
	m.jobsTotal["done"], m.jobsTotal["failed"], m.jobsTotal["cached"] = 5, 1, 2
	m.submitted, m.cacheHits, m.quota, m.backlog = 6, 2, 1, 3
	m.SetWorkers(2)
	m.SetQueueProbe(func() int { return 4 })
	m.phases = []phaseSample{
		{id: "j0001-0123456789ab", tenant: "alice", wall: 0.25,
			timing: stats.Timing{RanksTimed: 1, SweepNs: 1_500_000, VerifyNs: 250_000, BarrierNs: 7}},
		{id: "j0002-ba9876543210", tenant: `b"ob`, wall: 1e-6}, // untimed: no phase series
	}
	var page bytes.Buffer
	m.WritePrometheus(&page)
	want, err := os.ReadFile("testdata/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page.Bytes(), want) {
		t.Fatalf("scrape page changed:\n got:\n%s\nwant:\n%s", page.Bytes(), want)
	}
}
