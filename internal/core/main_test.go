package core

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain bounds the heap's growth. Several tests train full detectors,
// and at the default GOGC the heap may grow to twice the live set before
// a collection. A soft limit of 1.3 GB makes the collector run earlier
// instead. It bounds GC slack, not the live set: a live heap over the
// limit makes the collector run more often (capped at half the CPU),
// never fail.
func TestMain(m *testing.M) {
	debug.SetMemoryLimit(1300 << 20)
	os.Exit(m.Run())
}
