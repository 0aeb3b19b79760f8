package pipeline

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/observe"
	"repro/internal/retry"
)

// readQuarantineManifest parses the manifest under a quarantine directory
// the way an operator's tooling would: it tolerates a torn trailing line,
// and a missing manifest yields (nil, nil).
func readQuarantineManifest(quarantineDir string) ([]QuarantineEntry, error) {
	f, err := os.Open(filepath.Join(quarantineDir, quarantineManifest))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []QuarantineEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var e QuarantineEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

func TestDirSourceRetriesTransientOpens(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n2\n")
	writeFile(t, dir, "b.csv", "y\n3\n")

	fs := faultfs.New(faultfs.Config{Seed: 1, TransientRate: 1, RecoverAfter: 2})
	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader: true,
		Open:      fs.Open,
		Retry:     retry.Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 2 {
		t.Fatalf("streamed %d columns, want 2 (faults must be retried, not dropped)", len(cols))
	}
	if fs.TransientInjected() != 4 {
		t.Errorf("injected %d transient faults, want 4 (2 per file)", fs.TransientInjected())
	}
	if files, colsQ := src.Quarantined(); files != 0 || colsQ != 0 {
		t.Errorf("Quarantined() = (%d, %d), want (0, 0): transient faults must not quarantine", files, colsQ)
	}
	if src.retries != 4 {
		t.Errorf("counted %d retries, want 4", src.retries)
	}
}

func TestDirSourceRetriesMidReadFaults(t *testing.T) {
	dir := t.TempDir()
	content := "x,y\n" + strings.Repeat("11,alpha\n", 40)
	writeFile(t, dir, "a.csv", content)

	fs := faultfs.New(faultfs.Config{
		Seed: 2, TransientRate: 1, RecoverAfter: 1, ReadFault: true, ReadFaultAfter: 16,
	})
	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader: true,
		Open:      fs.Open,
		Retry:     retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 2 || len(cols[0].Values) != 40 {
		t.Fatalf("after mid-read fault recovery: %d columns, want complete table", len(cols))
	}
}

func TestDirSourceQuarantinesPermanentFailuresUnderBudget(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "bad.csv", "x\n1\n")
	writeFile(t, dir, "good.csv", "y\nok\n")
	qdir := t.TempDir()

	open := func(path string) (io.ReadCloser, error) {
		if strings.HasSuffix(path, "bad.csv") {
			return nil, fmt.Errorf("disk sector unreadable: %w", os.ErrPermission)
		}
		return os.Open(path)
	}
	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader:     true,
		Open:          open,
		MaxBadFiles:   1,
		QuarantineDir: qdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 1 || cols[0].Name != "y" {
		t.Fatalf("streamed %v, want just good.csv's column", cols)
	}
	files, _ := src.Quarantined()
	if files != 1 {
		t.Errorf("files skipped = %d, want 1", files)
	}
	entries, err := readQuarantineManifest(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != "file" || entries[0].Path != "bad.csv" {
		t.Fatalf("manifest = %+v, want one file entry for bad.csv", entries)
	}
	if !strings.Contains(entries[0].Error, "unreadable") {
		t.Errorf("manifest entry lost the cause: %q", entries[0].Error)
	}
}

func TestDirSourceBudgetExhaustionAborts(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n")
	writeFile(t, dir, "b.csv", "y\n2\n")
	writeFile(t, dir, "c.csv", "z\n3\n")

	open := func(path string) (io.ReadCloser, error) { return nil, os.ErrPermission }
	src, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, Open: open, MaxBadFiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		_, lastErr = src.Next()
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", lastErr)
	}
	// The tipping cause must stay reachable through the budget wrapper so
	// callers can still triage it with errors.Is/As.
	if !errors.Is(lastErr, os.ErrPermission) {
		t.Errorf("budget error severed the cause chain: %v", lastErr)
	}
}

func TestDirSourceCancellationDoesNotQuarantine(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n")
	writeFile(t, dir, "b.csv", "y\n2\n")
	qdir := t.TempDir()

	// Zero budget: before the fix, a cancellation at a file boundary was
	// quarantined and surfaced as ErrBudgetExhausted instead of Canceled.
	src, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	src.BindContext(ctx)

	// Drain a.csv's single column so the pending buffer is empty and the
	// next call lands exactly on the file boundary.
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = src.Next()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("cancellation misreported as budget exhaustion: %v", err)
	}
	if files, cols := src.Quarantined(); files != 0 || cols != 0 {
		t.Errorf("Quarantined() = (%d, %d) after cancellation, want (0, 0)", files, cols)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := readQuarantineManifest(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("cancellation wrote quarantine entries: %+v", entries)
	}

	// A resumed source over the same quarantine dir must deliver both
	// files: the cancelled run excluded nothing.
	s2, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	if cols := drain(t, s2); len(cols) != 2 {
		t.Fatalf("resume streamed %d columns, want 2", len(cols))
	}
}

func TestDirSourceResumeOverBudgetFailsFast(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n")
	writeFile(t, dir, "b.csv", "y\n2\n")
	writeFile(t, dir, "c.csv", "z\n3\n")
	qdir := t.TempDir()

	// Run 1 quarantines two files under a budget of 2.
	open := func(path string) (io.ReadCloser, error) {
		if strings.HasSuffix(path, "c.csv") {
			return os.Open(path)
		}
		return nil, os.ErrPermission
	}
	s1, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, Open: open, MaxBadFiles: 2, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, s1)

	// Run 2 lowers the budget below the restored spend: construction must
	// fail fast, not proceed over budget until a fresh quarantine trips.
	_, err = NewDirSourceWith(dir, DirConfig{HasHeader: true, MaxBadFiles: 1, QuarantineDir: qdir})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("NewDirSourceWith with lowered budget = %v, want ErrBudgetExhausted", err)
	}

	// The original budget still resumes cleanly.
	s3, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, MaxBadFiles: 2, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	if cols := drain(t, s3); len(cols) != 1 {
		t.Fatalf("resume streamed %d columns, want 1", len(cols))
	}
}

func TestDirSourceFractionalBudget(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		writeFile(t, dir, fmt.Sprintf("f%02d.csv", i), "x\n1\n")
	}
	// 30% of 10 files = budget 3; fail exactly 3 → survives.
	failing := map[string]bool{"f01.csv": true, "f04.csv": true, "f07.csv": true}
	open := func(path string) (io.ReadCloser, error) {
		if failing[filepath.Base(path)] {
			return nil, os.ErrPermission
		}
		return os.Open(path)
	}
	src, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, Open: open, MaxBadFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 7 {
		t.Fatalf("streamed %d columns, want 7", len(cols))
	}
}

func TestDirSourceQuarantinesParseErrorWithOffset(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "broken.csv", "a,b\n\"unterminated\n")
	writeFile(t, dir, "fine.csv", "c\nok\n")
	qdir := t.TempDir()

	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader: true, MaxBadFiles: 1, QuarantineDir: qdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 1 || cols[0].Name != "c" {
		t.Fatalf("streamed %v, want fine.csv only", cols)
	}
	entries, err := readQuarantineManifest(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != "file" {
		t.Fatalf("manifest = %+v", entries)
	}
	if entries[0].Offset == 0 {
		t.Error("parse-error quarantine entry carries no byte offset")
	}
}

func TestDirSourceQuarantinesGarbageColumns(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "t.csv", "good,binary\nalpha,\x00\x01\x02\nbeta,x\n")
	qdir := t.TempDir()

	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader: true, MaxBadFiles: 1, QuarantineDir: qdir,
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 1 || cols[0].Name != "good" {
		t.Fatalf("streamed %v, want the clean column only", cols)
	}
	if _, q := src.Quarantined(); q != 1 {
		t.Errorf("columns quarantined = %d, want 1", q)
	}
	entries, err := readQuarantineManifest(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Kind != "column" || entries[0].Column != 1 || entries[0].Name != "binary" {
		t.Fatalf("manifest = %+v, want one column entry for index 1", entries)
	}
}

func TestDirSourceManifestPreskipKeepsStreamAligned(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n")
	writeFile(t, dir, "b.csv", "y\n2\n")
	writeFile(t, dir, "c.csv", "z\n3\n")
	qdir := t.TempDir()

	// Run 1: b.csv fails persistently and is quarantined.
	open1 := func(path string) (io.ReadCloser, error) {
		if strings.HasSuffix(path, "b.csv") {
			return nil, os.ErrPermission
		}
		return os.Open(path)
	}
	s1, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, Open: open1, MaxBadFiles: 2, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	cols1 := drain(t, s1)

	// Run 2 (resume): the fault healed, but the manifest must still skip
	// b.csv so the delivered stream matches the checkpointed one.
	s2, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, MaxBadFiles: 2, QuarantineDir: qdir})
	if err != nil {
		t.Fatal(err)
	}
	cols2 := drain(t, s2)
	if len(cols1) != len(cols2) {
		t.Fatalf("resumed stream has %d columns, original had %d", len(cols2), len(cols1))
	}
	for i := range cols1 {
		if cols1[i].Name != cols2[i].Name {
			t.Fatalf("column %d: %q vs %q — manifest pre-skip did not keep the stream aligned", i, cols1[i].Name, cols2[i].Name)
		}
	}
	// Budget continuity: the restored spend is visible, and no duplicate
	// manifest entries were appended.
	entries, err := readQuarantineManifest(qdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("manifest holds %d entries after resume, want 1 (no duplicates)", len(entries))
	}
}

// closeFailer wraps a reader whose Close fails once per path, transiently.
type closeFailer struct {
	io.Reader
	fail bool
}

func (c *closeFailer) Close() error {
	if c.fail {
		return retry.Transient(errors.New("deferred readahead error"))
	}
	return nil
}

func TestDirSourceRetriesFailedClose(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "a.csv", "x\n1\n")
	opens := 0
	open := func(path string) (io.ReadCloser, error) {
		opens++
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &closeFailer{Reader: bytes.NewReader(data), fail: opens == 1}, nil
	}
	src, err := NewDirSourceWith(dir, DirConfig{
		HasHeader: true,
		Open:      open,
		Retry:     retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	cols := drain(t, src)
	if len(cols) != 1 {
		t.Fatalf("streamed %d columns, want 1", len(cols))
	}
	if opens != 2 {
		t.Errorf("opened %d times, want 2 (close failure must retry the file)", opens)
	}
}

func TestDirSourceFaultMetricsExported(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "bad.csv", "x\n\"broken\n")
	writeFile(t, dir, "good.csv", "y\nv\n"+strings.Repeat("w\n", 30))

	reg := observe.NewRegistry()
	src, err := NewDirSourceWith(dir, DirConfig{HasHeader: true, MaxBadFiles: 1})
	if err != nil {
		t.Fatal(err)
	}
	src.AttachMetrics(newSourceMetrics(reg))
	drain(t, src)

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"autodetect_pipeline_files_skipped_total 1",
		"autodetect_pipeline_columns_quarantined_total 0",
		"autodetect_pipeline_io_retries_total 0",
		"autodetect_pipeline_file_open_seconds_count",
		"autodetect_pipeline_file_parse_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}
