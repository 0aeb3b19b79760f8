package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/envelope"
	"repro/internal/pattern"
)

// goldenColumns and goldenOptions are the corpus and configuration of the
// golden files under testdata/: 40 Ent-XLS columns from seed 44, counted
// under three languages of different partition classes, none of them Leaf.
// The target precision is lowered so a corpus this small still trains. One
// worker, because an uncanonicalized partial numbers its patterns in the
// order its columns were folded, which more workers leave to the scheduler.
func goldenColumns() []*corpus.Column {
	return corpus.Generate(corpus.EntXLSProfile(), 40, 44).Columns
}

func goldenOptions() Options {
	cfg := testTrainConfig()
	cfg.Languages = []pattern.Language{pattern.L1(), pattern.L2(), pattern.Crude()}
	cfg.TargetPrecision = 0.9
	return Options{Workers: 1, Train: cfg, SampleColumns: 10}
}

// goldenShard regenerates testdata/partial.sh1: the golden corpus counted
// by CountPartial and written by EncodePartial.
func goldenShard(t *testing.T) []byte {
	t.Helper()
	p, err := CountPartial(context.Background(), NewSliceSource(goldenColumns()), goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkCorruptionsFail: a truncated and a bit-flipped copy of a golden both
// fail to decode with envelope.ErrIntegrity.
func checkCorruptionsFail(t *testing.T, data []byte, decode func([]byte) error) {
	t.Helper()
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	for name, bad := range map[string][]byte{"truncated": data[:len(data)/2], "bit-flipped": flipped} {
		if err := decode(bad); !errors.Is(err, envelope.ErrIntegrity) {
			t.Errorf("%s copy: err = %v, want envelope.ErrIntegrity", name, err)
		}
	}
}

// TestGoldenShard pins the SH/1 format: the committed shard decodes,
// re-encodes to the same bytes, and is what goldenShard writes today.
func TestGoldenShard(t *testing.T) {
	want := readGolden(t, "partial.sh1")
	p, err := DecodePartial(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if p.Columns != 40 || len(p.stats) != 3 || p.SampleSize() != 10 {
		t.Fatalf("decoded %d columns, %d languages, %d sampled; want 40, 3, 10", p.Columns, len(p.stats), p.SampleSize())
	}
	var re bytes.Buffer
	if err := EncodePartial(&re, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re.Bytes(), want) {
		t.Error("re-encoding the decoded golden shard changed its bytes")
	}
	if !bytes.Equal(goldenShard(t), want) {
		t.Error("EncodePartial over the golden corpus no longer writes testdata/partial.sh1")
	}
	checkCorruptionsFail(t, want, func(data []byte) error {
		_, err := DecodePartial(bytes.NewReader(data))
		return err
	})
}

// TestGoldenCK2Resumes: a CK/2 checkpoint still resumes to the model of an
// uninterrupted build. testdata/ck2/checkpoint-000000000020.ckpt was
// written by the CK/2 encoder at commit f7edaf1, the last to have one: Run
// over goldenColumns with goldenOptions, CheckpointEvery 20 and
// KeepCheckpoints, which left this barrier after the first 20 columns.
func TestGoldenCK2Resumes(t *testing.T) {
	const name = "checkpoint-000000000020.ckpt"
	data := readGolden(t, filepath.Join("ck2", name))
	opts := goldenOptions()
	_, ds, _, _ := resolveTrain(opts)
	ck2 := newSample(opts.SampleColumns, uint64(ds.Seed))
	p, err := decodePartial(bytes.NewReader(data), ck2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Columns != 20 || len(p.stats) != 3 || p.SampleSize() != 10 {
		t.Fatalf("decoded %d columns, %d languages, %d sampled; want 20, 3, 10", p.Columns, len(p.stats), p.SampleSize())
	}
	if _, err := DecodePartial(bytes.NewReader(data)); !errors.Is(err, envelope.ErrIntegrity) {
		t.Errorf("DecodePartial accepted a CK/2 checkpoint: err = %v", err)
	}
	checkCorruptionsFail(t, data, func(data []byte) error {
		_, err := decodePartial(bytes.NewReader(data), ck2)
		return err
	})

	clean, err := Run(context.Background(), NewSliceSource(goldenColumns()), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 20
	if err := os.WriteFile(filepath.Join(opts.CheckpointDir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Run(context.Background(), NewSliceSource(goldenColumns()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedColumns != 20 || resumed.CorruptCheckpointsSkipped != 0 {
		t.Errorf("resumed %d columns, skipped %d checkpoints; want 20 and 0", resumed.ResumedColumns, resumed.CorruptCheckpointsSkipped)
	}
	var got, want bytes.Buffer
	if err := resumed.Detector.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := clean.Detector.Save(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("model resumed from the CK/2 checkpoint differs from an uninterrupted build")
	}
}
