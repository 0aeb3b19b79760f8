package envelope

import (
	"bytes"
	"errors"
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
