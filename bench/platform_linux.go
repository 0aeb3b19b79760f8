package main

import (
	"bufio"
	"errors"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// preciseSleeper pins the calling goroutine to its OS thread and drops the
// thread's timer slack to 1ns, so sleepUntil wakes within tens of
// microseconds of its target. Go's own timers wake up to a millisecond
// late on an idle process, which an open-loop generator would report as
// server latency. The pinning lasts for the goroutine's life: let it exit
// pinned so the thread ends with it.
type preciseSleeper struct{}

func newPreciseSleeper() preciseSleeper {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	// Best effort: without it nanosleep still beats Go timers, only by less.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return preciseSleeper{}
}

func (preciseSleeper) sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// high-water mark, so a later peakRSSMB reads the peak of what ran after
// this call only (writing 5 to clear_refs resets VmHWM to the current RSS).
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the resident-set high-water mark, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errNoHWM
}

// writtenBytes is the number of bytes this process has passed to write
// calls so far (wchar in /proc/self/io).
func writtenBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("no wchar in /proc/self/io")
}

// filesystemType names the filesystem holding path, for the environment
// stamp: the cost of every fsync'd checkpoint depends on it.
func filesystemType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
