package main

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// errNoHWM reports a platform without /proc's resident-set high-water mark.
var errNoHWM = errors.New("peak RSS not available on this platform")

// envStamp records where a run was measured; compare refuses nothing on
// it, but a reader diffing two result sets should check it first.
type envStamp struct {
	GitSHA     string `json:"git_sha"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// WorkFS is the filesystem of the jobs and checkpoint directories.
	WorkFS string `json:"work_fs"`
}

func stamp(workDir string) envStamp {
	return envStamp{
		GitSHA:     gitSHA("."),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		WorkFS:     filesystemType(workDir),
	}
}

// gitSHA resolves HEAD of the repository at root without running git, or
// returns "unknown" outside a git checkout.
func gitSHA(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
