package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/envelope"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// randomColumns builds a deterministic slate of synthetic columns, with
// some exact duplicates so tie handling is exercised.
func randomColumns(n int, seed int64) []*corpus.Column {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*corpus.Column, 0, n)
	for i := 0; i < n; i++ {
		nv := 1 + rng.Intn(6)
		vals := make([]string, nv)
		for j := range vals {
			vals[j] = string(rune('a'+rng.Intn(26))) + string(rune('0'+rng.Intn(10)))
		}
		cols = append(cols, &corpus.Column{Values: vals})
		if rng.Intn(7) == 0 { // duplicate the column verbatim
			dup := append([]string(nil), vals...)
			cols = append(cols, &corpus.Column{Values: dup})
			i++
		}
	}
	return cols[:n]
}

func sampleValues(cols []*corpus.Column) [][]string {
	out := make([][]string, len(cols))
	for i, c := range cols {
		out[i] = c.Values
	}
	return out
}

// TestSampleOrderInvariant: a bounded sample is a pure function of the
// column multiset — stream order must not matter.
func TestSampleOrderInvariant(t *testing.T) {
	cols := randomColumns(500, 7)
	fwd := newSample(40, 99)
	rev := newSample(40, 99)
	for _, c := range cols {
		fwd.add(c)
	}
	for i := len(cols) - 1; i >= 0; i-- {
		rev.add(cols[i])
	}
	if !reflect.DeepEqual(sampleValues(fwd.finalize()), sampleValues(rev.finalize())) {
		t.Fatal("bounded sample depends on stream order")
	}
}

// TestSampleMergeEqualsGlobal: per-partition bottom-k samples merged in any
// order equal the bottom-k over the whole stream.
func TestSampleMergeEqualsGlobal(t *testing.T) {
	cols := randomColumns(600, 13)
	global := newSample(50, 42)
	for _, c := range cols {
		global.add(c)
	}
	want := sampleValues(global.finalize())

	for _, parts := range []int{2, 3, 5} {
		shards := make([]*sample, parts)
		for i := range shards {
			shards[i] = newSample(50, 42)
		}
		for i, c := range cols {
			shards[i%parts].add(c)
		}
		// Merge in reverse order to prove merge-order independence.
		merged := newSample(50, 42)
		for i := parts - 1; i >= 0; i-- {
			merged.merge(shards[i])
		}
		if got := sampleValues(merged.finalize()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-way partitioned sample differs from global bottom-k", parts)
		}
	}
}

// TestSampleUnboundedConcatenates: cap<=0 keeps everything in stream order,
// and merging appends — partition order is the caller's contract.
func TestSampleUnboundedConcatenates(t *testing.T) {
	cols := randomColumns(60, 3)
	a, b := newSample(0, 1), newSample(0, 1)
	for _, c := range cols[:30] {
		a.add(c)
	}
	for _, c := range cols[30:] {
		b.add(c)
	}
	a.merge(b)
	if !reflect.DeepEqual(sampleValues(a.finalize()), sampleValues(cols)) {
		t.Fatal("unbounded merge does not reproduce the stream")
	}
}

// TestSampleRestoreRoundTrip: entries() → restore() preserves the sample
// and keeps accepting columns correctly afterwards.
func TestSampleRestoreRoundTrip(t *testing.T) {
	cols := randomColumns(300, 21)
	direct := newSample(25, 8)
	restored := newSample(25, 8)
	for _, c := range cols[:150] {
		direct.add(c)
	}
	half := newSample(25, 8)
	for _, c := range cols[:150] {
		half.add(c)
	}
	restored.restore(half.entries())
	for _, c := range cols[150:] {
		direct.add(c)
		restored.add(c)
	}
	if !reflect.DeepEqual(sampleValues(direct.finalize()), sampleValues(restored.finalize())) {
		t.Fatal("restore() diverges from the uninterrupted sample")
	}
}

// TestDirPartitionerBounds: partitions tile the file list and the clamped
// count never exceeds the file count.
func TestDirPartitionerBounds(t *testing.T) {
	dir, files := chaosCorpusDir(t, 200, 20, 5)
	p, err := NewDirPartitioner(dir, DirConfig{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Files() != files {
		t.Fatalf("partitioner sees %d files, wrote %d", p.Files(), files)
	}
	if got := p.Clamp(files + 5); got != files {
		t.Errorf("Clamp(%d) = %d, want %d", files+5, got, files)
	}
	if got := p.Clamp(0); got != 1 {
		t.Errorf("Clamp(0) = %d, want 1", got)
	}
	n := p.Clamp(3)
	total := 0
	for i := 0; i < n; i++ {
		src, err := p.Open(PartitionSpec{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		total += src.Files()
		fp, err := p.PartitionFingerprint(PartitionSpec{Index: i, Count: n})
		if err != nil {
			t.Fatal(err)
		}
		if fp != src.Fingerprint() {
			t.Errorf("partition %d: PartitionFingerprint disagrees with the opened source", i)
		}
	}
	if total != files {
		t.Errorf("partitions cover %d files, want %d", total, files)
	}
	if _, err := p.Open(PartitionSpec{Index: n, Count: n}); err == nil {
		t.Error("out-of-range partition index accepted")
	}
}

// TestPartialEncodeDecode: shard round trip preserves everything; a single
// flipped byte is rejected with an integrity error.
func TestPartialEncodeDecode(t *testing.T) {
	cols := randomColumns(200, 17)
	opts := Options{Workers: 2, Train: testTrainConfig(), SampleColumns: 30}
	p, err := CountPartial(context.Background(), NewSliceSource(cols), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := DecodePartial(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Fingerprint != p.Fingerprint || q.Columns != p.Columns || q.Values != p.Values {
		t.Errorf("decoded header differs: %+v vs %+v", q, p)
	}
	if !reflect.DeepEqual(sampleValues(q.smp.finalize()), sampleValues(p.smp.finalize())) {
		t.Error("decoded sample differs")
	}

	// Flip one payload byte: decode must fail the envelope check.
	torn := append([]byte(nil), buf.Bytes()...)
	torn[len(torn)/2] ^= 0x40
	if _, err := DecodePartial(bytes.NewReader(torn)); !errors.Is(err, envelope.ErrIntegrity) {
		t.Errorf("flipped shard decoded with err=%v, want envelope.ErrIntegrity", err)
	}
	// Truncate: also an integrity failure.
	if _, err := DecodePartial(bytes.NewReader(buf.Bytes()[:buf.Len()-9])); !errors.Is(err, envelope.ErrIntegrity) {
		t.Errorf("truncated shard decoded with err=%v, want envelope.ErrIntegrity", err)
	}
}

// TestDecodePartialRejectsUnknownPairKey: a shard whose envelope is intact
// but whose statistics name a pattern past their table must fail to
// decode. Accepted, it would panic the coordinator's merge.
func TestDecodePartialRejectsUnknownPairKey(t *testing.T) {
	cfg := testTrainConfig()
	cfg.Languages = []pattern.Language{pattern.L1()}
	col := &corpus.Column{Values: []string{"2011-06-20", "abc"}}
	p, err := CountPartial(context.Background(), NewSliceSource([]*corpus.Column{col}), Options{Workers: 1, Train: cfg})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePartial(&buf, p); err != nil {
		t.Fatal(err)
	}
	payload, err := envelope.Read(&buf, shardMagic, maxCheckpointPayload)
	if err != nil {
		t.Fatal(err)
	}
	// The only language's statistics close the payload, and their one pair
	// entry, a u64 key then a u32 count, closes those.
	binary.LittleEndian.PutUint64(payload[len(payload)-12:], stats.PairKey(7, 9000))
	var bad bytes.Buffer
	if err := envelope.Write(&bad, shardMagic, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePartial(&bad); err == nil {
		t.Fatal("shard with an unknown pattern in a pair key decoded without error")
	}
}

// TestPartitionedBuildMatchesSingleProcess: the distributed-build core
// property at the pipeline level, no HTTP involved — counting partitions
// separately, merging the partials, and finalizing produces the
// byte-identical model of one Run over the whole directory.
func TestPartitionedBuildMatchesSingleProcess(t *testing.T) {
	dir, _ := chaosCorpusDir(t, 600, 40, 31)
	for _, tc := range []struct {
		name          string
		sampleColumns int
	}{
		{"unbounded-sample", 0},
		{"bounded-sample", 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 2, Train: testTrainConfig(), SampleColumns: tc.sampleColumns}

			whole, err := NewDirSourceWith(dir, DirConfig{HasHeader: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(context.Background(), whole, opts)
			if err != nil {
				t.Fatal(err)
			}

			part, err := NewDirPartitioner(dir, DirConfig{HasHeader: true})
			if err != nil {
				t.Fatal(err)
			}
			n := part.Clamp(3)
			var merged *Partial
			for i := 0; i < n; i++ {
				src, err := part.Open(PartitionSpec{Index: i, Count: n})
				if err != nil {
					t.Fatal(err)
				}
				p, err := CountPartial(context.Background(), src, opts)
				if err != nil {
					t.Fatal(err)
				}
				if merged == nil {
					merged = p
				} else if err := merged.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			if merged.Columns != want.Columns || merged.Values != want.Values {
				t.Errorf("partitioned count %d/%d differs from single-process %d/%d",
					merged.Columns, merged.Values, want.Columns, want.Values)
			}
			det, rep, err := merged.Finalize(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.TrainingExamples != want.Report.TrainingExamples {
				t.Errorf("training examples %d vs %d", rep.TrainingExamples, want.Report.TrainingExamples)
			}
			var got, ref bytes.Buffer
			if err := det.Save(&got); err != nil {
				t.Fatal(err)
			}
			if err := want.Detector.Save(&ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				t.Fatal("partitioned build model differs from single-process model")
			}
		})
	}
}

// TestCountParamsRoundTrip: reconstructing Options from wire-level
// CountParams preserves the build fingerprint — the contract the
// distributed-build protocol rests on.
func TestCountParamsRoundTrip(t *testing.T) {
	for _, opts := range []Options{
		{},
		{SampleColumns: 7},
		{Train: testTrainConfig(), SampleColumns: 120},
	} {
		cp := ResolveCountParams(opts)
		re := cp.Options(3)
		if got, want := BuildFingerprint("src", re), BuildFingerprint("src", opts); got != want {
			t.Errorf("opts %+v: reconstructed fingerprint %q, want %q", opts, got, want)
		}
	}
}
