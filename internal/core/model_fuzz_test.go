package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestLoadCorruptionFuzz: randomly corrupted model payloads must either
// fail to load or load into a detector that does not panic — never crash.
func TestLoadCorruptionFuzz(t *testing.T) {
	det, err := NewDetector(fixtureCalibrations(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	r := rand.New(rand.NewSource(99))

	check := func(data []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("panic on corrupted model: %v", p)
			}
		}()
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected: fine
		}
		// If it loaded, it must be usable.
		_ = loaded.ScorePair("2011-01-01", "2011/01/01")
		_ = loaded.DetectColumn([]string{"a", "b", "c"})
	}

	// Truncations at every length decile plus small offsets.
	for i := 0; i <= 10; i++ {
		check(valid[:len(valid)*i/10])
	}
	// Random single-byte flips.
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), valid...)
		pos := r.Intn(len(data))
		data[pos] ^= byte(1 + r.Intn(255))
		check(data)
	}
	// Random multi-byte splices.
	for trial := 0; trial < 50; trial++ {
		data := append([]byte(nil), valid...)
		pos := r.Intn(len(data))
		n := r.Intn(32) + 1
		for i := 0; i < n && pos+i < len(data); i++ {
			data[pos+i] = byte(r.Intn(256))
		}
		check(data)
	}
	// Garbage of assorted sizes.
	for _, n := range []int{0, 1, 16, 100, 10000} {
		data := make([]byte, n)
		r.Read(data)
		check(data)
	}
}
