package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/envelope"
)

// saveModel serializes the tiny fixture detector once per test.
func saveModel(t *testing.T) (*Detector, []byte) {
	t.Helper()
	det := tinyDetector(t)
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return det, buf.Bytes()
}

func TestSaveWritesV2Envelope(t *testing.T) {
	_, data := saveModel(t)
	if !bytes.HasPrefix(data, magicV2) {
		t.Fatalf("model does not start with v2 magic: %q", data[:16])
	}
	plen := binary.LittleEndian.Uint64(data[len(magicV2):])
	// magic + length header + payload + crc trailer
	if want := uint64(len(data) - len(magicV2) - 16); plen != want {
		t.Fatalf("length header %d, want %d", plen, want)
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}

// TestLoadCorruptAllocatesLittle: the checksum is verified before any field
// is decoded, so a bit-flipped model fails after a few buffer allocations
// instead of a decode into per-language maps.
func TestLoadCorruptAllocatesLittle(t *testing.T) {
	_, valid := saveModel(t)
	data := append([]byte(nil), valid...)
	data[len(data)/2] ^= 1
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = Load(bytes.NewReader(data))
	})
	if !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("bit-flipped model: err = %v, want ErrCorruptModel", err)
	}
	if allocs > 40 {
		t.Fatalf("loading a bit-flipped %d-byte model made %.0f allocations", len(data), allocs)
	}
}

func TestLoadV1Legacy(t *testing.T) {
	det, _ := saveModel(t)
	var v1 bytes.Buffer
	v1.Write(magicV1)
	payload, err := det.encodePayload()
	if err != nil {
		t.Fatal(err)
	}
	v1.Write(payload)
	back, err := Load(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatalf("legacy v1 model failed to load: %v", err)
	}
	a, b := det.ScorePair("2011-01-01", "2011/01/01"), back.ScorePair("2011-01-01", "2011/01/01")
	if a.Confidence != b.Confidence || a.Flagged != b.Flagged {
		t.Errorf("v1 round trip scored differently: %+v vs %+v", a, b)
	}
}

// TestLoadCorruptionTable: systematic truncations and bit flips must all be
// rejected with ErrCorruptModel and must never panic.
func TestLoadCorruptionTable(t *testing.T) {
	_, valid := saveModel(t)

	check := func(t *testing.T, name string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: panic: %v", name, p)
			}
		}()
		_, err := Load(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: corrupted model loaded without error", name)
			return
		}
		if !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: error does not wrap ErrCorruptModel: %v", name, err)
		}
	}

	t.Run("truncations", func(t *testing.T) {
		// Every length from empty up to one byte short, sampled densely at
		// the envelope boundaries and sparsely through the payload.
		for n := 0; n < 64 && n < len(valid); n++ {
			check(t, "head", valid[:n])
		}
		for i := 1; i <= 16; i++ {
			check(t, "decile", valid[:(len(valid)-1)*i/16])
		}
		check(t, "one-short", valid[:len(valid)-1])
	})

	t.Run("bit-flips", func(t *testing.T) {
		// Flip every bit of the envelope (magic, length header, trailer)
		// and a stride of payload bytes: the CRC must catch every one.
		flip := func(pos int, bit byte) {
			data := append([]byte(nil), valid...)
			data[pos] ^= 1 << bit
			check(t, "flip", data)
		}
		for pos := 0; pos < 24 && pos < len(valid); pos++ {
			for bit := byte(0); bit < 8; bit++ {
				flip(pos, bit)
			}
		}
		for pos := 24; pos < len(valid); pos += 97 {
			flip(pos, byte(pos%8))
		}
		for pos := len(valid) - 8; pos < len(valid); pos++ {
			flip(pos, byte(pos%8))
		}
	})

	t.Run("implausible-counts", func(t *testing.T) {
		// Overwrite the language count (first payload u64 after the
		// aggregation strategy) with absurd values.
		for _, n := range []uint64{0, maxModelLanguages + 1, 1 << 62} {
			data := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint64(data[len(magicV2)+8+8:], n)
			check(t, "lang-count", data)
		}
	})

	t.Run("trailing-garbage-in-payload", func(t *testing.T) {
		// Inflate the length header without supplying payload bytes.
		data := append([]byte(nil), valid...)
		plen := binary.LittleEndian.Uint64(data[len(magicV2):])
		binary.LittleEndian.PutUint64(data[len(magicV2):], plen+8)
		check(t, "length-mismatch", data)
	})

	t.Run("not-a-model", func(t *testing.T) {
		check(t, "garbage", []byte("definitely not a model file at all"))
		if _, err := Load(strings.NewReader("")); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("empty input: %v", err)
		}
	})
}

// TestLoadAggregationWord: every model writes aggregation word 0. Words 1–4
// named the Figure 8(b) ablation rules that older builds could persist;
// they still load, as max precision. Anything larger is corrupt.
func TestLoadAggregationWord(t *testing.T) {
	det, _ := saveModel(t)
	payload, err := det.encodePayload()
	if err != nil {
		t.Fatal(err)
	}
	if word := binary.LittleEndian.Uint64(payload); word != 0 {
		t.Fatalf("saved aggregation word %d, want 0", word)
	}
	reframe := func(word uint64) (*Detector, error) {
		p := append([]byte(nil), payload...)
		binary.LittleEndian.PutUint64(p, word)
		var buf bytes.Buffer
		if err := envelope.Write(&buf, magicV2, p); err != nil {
			t.Fatal(err)
		}
		return Load(&buf)
	}
	zero, err := reframe(0)
	if err != nil {
		t.Fatal(err)
	}
	three, err := reframe(3)
	if err != nil {
		t.Fatalf("model with aggregation word 3 failed to load: %v", err)
	}
	cols := [][]string{
		{"2011-01-01", "2012-03-04", "1999-12-31", "2013-05-06", "2011/01/01"},
		{"100", "200", "1,000", "3.5", "-", "n/a"},
		{"a@b.com", "c@d.org", "12:30", "", "x@y.net"},
	}
	for _, col := range cols {
		if a, b := zero.DetectColumn(col), three.DetectColumn(col); !reflect.DeepEqual(a, b) {
			t.Errorf("column %q: word 3 findings %+v, word 0 findings %+v", col, b, a)
		}
	}
	if _, err := reframe(5); !errors.Is(err, ErrCorruptModel) {
		t.Errorf("aggregation word 5: err = %v, want ErrCorruptModel", err)
	}
}
