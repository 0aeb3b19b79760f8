package envelope

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

var testMagic = []byte("TEST-ENVELOPE/1\n")

func TestRoundTrip(t *testing.T) {
	payload := []byte("hello corpus statistics")
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, testMagic, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatalf("payload mismatch: %q != %q", back, payload)
	}
}

func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, nil); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, testMagic, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("expected empty payload, got %d bytes", len(back))
	}
}

func TestRejectsCorruption(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, payload); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flipping any byte must be detected.
	for i := 0; i < len(good); i++ {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := Read(bytes.NewReader(bad), testMagic, 1<<20); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("flip at %d: expected ErrIntegrity, got %v", i, err)
		}
	}
	// Every truncation must be detected.
	for i := 0; i < len(good); i++ {
		if _, err := Read(bytes.NewReader(good[:i]), testMagic, 1<<20); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("truncate at %d: expected ErrIntegrity, got %v", i, err)
		}
	}
}

func TestRejectsOversizedLength(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, testMagic, 10); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("expected ErrIntegrity for oversized payload, got %v", err)
	}
}

// TestReadAllocatesOnlyWhatArrives: a short stream that declares a 4 GiB
// payload fails without allocating for the declared length.
func TestReadAllocatesOnlyWhatArrives(t *testing.T) {
	stream := binary.LittleEndian.AppendUint64(append([]byte(nil), testMagic...), 4<<30)
	stream = append(stream, "only a few bytes"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(stream), testMagic, 1<<33)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("expected ErrIntegrity for a short stream, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a %d-byte stream allocated %d bytes", len(stream), grew)
	}
}

func TestRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf, []byte("OTHER-MAGICXX/9\n"), 1<<20); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("expected ErrIntegrity for wrong magic, got %v", err)
	}
}

func TestJSONRoundTripAndUndecodablePayload(t *testing.T) {
	type rec struct {
		N int    `json:"n"`
		S string `json:"s"`
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, testMagic, rec{N: 7, S: "x"}); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if err := Write(&plain, testMagic, []byte(`{"n":7,"s":"x"}`)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), plain.Bytes()) {
		t.Fatal("WriteJSON bytes differ from Write over the JSON encoding")
	}
	var back rec
	if err := ReadJSON(&buf, testMagic, 1<<20, &back); err != nil || back != (rec{7, "x"}) {
		t.Fatalf("ReadJSON = %+v, %v", back, err)
	}

	// An intact envelope around undecodable JSON is still corruption.
	var bad bytes.Buffer
	if err := Write(&bad, testMagic, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if err := ReadJSON(&bad, testMagic, 1<<20, &back); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("undecodable payload: err = %v, want ErrIntegrity", err)
	}
}

func TestDecoderReadsFieldsAndChecksLengths(t *testing.T) {
	le := binary.LittleEndian
	payload := le.AppendUint64(nil, 7)
	payload = le.AppendUint32(payload, 9)
	payload = AppendString(payload, "pattern")
	payload = le.AppendUint64(payload, 2) // a count of two 4-byte elements
	payload = le.AppendUint32(payload, 1)
	payload = le.AppendUint32(payload, 2)

	d := NewDecoder(payload)
	if d.U64() != 7 || d.U32() != 9 || d.String() != "pattern" || d.Count(4) != 2 || d.U32() != 1 || d.U32() != 2 {
		t.Fatal("fields decoded wrongly")
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Trailing bytes fail Finish.
	d = NewDecoder(payload)
	d.U64()
	if err := d.Finish(); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("trailing bytes: err = %v, want ErrIntegrity", err)
	}

	// A length or count the remaining bytes cannot back fails before any
	// read past the end, and the failure sticks.
	for _, tc := range []struct {
		name    string
		payload []byte
		zero    func(*Decoder) bool
	}{
		{"string length", le.AppendUint64(nil, 1<<62), func(d *Decoder) bool { return d.String() == "" }},
		{"count", le.AppendUint64(le.AppendUint64(nil, 3), 0), func(d *Decoder) bool { return d.Count(4) == 0 }},
		{"short u64", []byte{1, 2, 3}, func(d *Decoder) bool { return d.U64() == 0 }},
	} {
		d := NewDecoder(tc.payload)
		if !tc.zero(d) || d.U32() != 0 {
			t.Errorf("%s: returned data", tc.name)
		}
		if !errors.Is(d.Err(), ErrIntegrity) || d.Finish() != d.Err() {
			t.Errorf("%s: failure did not stick: %v", tc.name, d.Err())
		}
	}
}
