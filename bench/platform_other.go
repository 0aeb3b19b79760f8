//go:build !linux

package main

import (
	"runtime/debug"
	"time"
)

// preciseSleeper falls back to Go timers off Linux; expect open-loop
// generator lag near a millisecond there (bench.gen_lag_p50_ms shows it).
type preciseSleeper struct{}

func newPreciseSleeper() preciseSleeper       { return preciseSleeper{} }
func (preciseSleeper) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
func resetPeakRSS() error                     { debug.FreeOSMemory(); return errNoHWM }
func peakRSSMB() (float64, error)             { return 0, errNoHWM }
func writtenBytes() (int64, error)            { return 0, errNoHWM }
func filesystemType(string) string            { return "unknown" }
func cpuModel() string                        { return "unknown" }
