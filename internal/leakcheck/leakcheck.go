// Package leakcheck is the goroutine accounting a package's TestMain runs
// around its tests: every goroutine a test started — servers, workers,
// clusters, pools — must be gone within 3 s of the last test, or the run
// fails with every stack printed.
package leakcheck

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs the tests, accounts for their goroutines and exits with the
// run's code. A fuzzing run is exempt: its coordinator starts os/signal's
// loop, which never exits, and it runs no test.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "goroutines: %d before the tests, %d after\n%s\n", before, n, buf)
		code = 1
	}
	os.Exit(code)
}
