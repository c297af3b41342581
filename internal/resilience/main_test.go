package resilience_test

import (
	"testing"

	"stencilabft/internal/leakcheck"
)

// TestMain accounts for goroutines after the tests (leakcheck): a test
// closes every cluster, listener and pool it starts.
func TestMain(m *testing.M) { leakcheck.Main(m) }
