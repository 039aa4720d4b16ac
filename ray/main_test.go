package ray

import (
	"os"
	"testing"

	"ray/internal/testutil/leakcheck"
)

// TestMain gates the whole package on goroutine hygiene: every background
// loop the tests start (heartbeats, batchers, slot workers, transfers) must
// be stopped by the owning Shutdown/Stop path before the run ends.
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
