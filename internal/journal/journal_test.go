package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []rec{{1, "a"}, {2, "b"}, {3, "c"}}
	for _, r := range want {
		if err := w.Encode(r); err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	total := int64(buf.Len())
	var got []rec
	valid, err := Scan(&buf, func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if valid != total {
		t.Fatalf("valid prefix %d, want whole file %d", valid, total)
	}
}

func TestEncodeFlushesEachRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Encode(rec{1, "a"}); err != nil {
		t.Fatal(err)
	}
	// Without an explicit Flush call the record must already be in buf.
	if buf.Len() == 0 {
		t.Fatal("Encode did not flush the record through")
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("\n")) {
		t.Fatal("record not newline-terminated")
	}
}

func TestScanDropsTornTail(t *testing.T) {
	data := "{\"n\":1,\"s\":\"a\"}\n{\"n\":2,\"s\":\"b\"}\n{\"n\":3,\"s\":"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (torn tail dropped)", len(got))
	}
	wantValid := int64(len("{\"n\":1,\"s\":\"a\"}\n{\"n\":2,\"s\":\"b\"}\n"))
	if valid != wantValid {
		t.Fatalf("valid prefix %d, want %d", valid, wantValid)
	}
}

func TestScanDropsRejectedFinalLine(t *testing.T) {
	// The final complete line is malformed — treated as a lower-layer
	// tear and dropped, not an error.
	data := "{\"n\":1,\"s\":\"a\"}\ngarbage-not-json\n"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d records, want 1", len(got))
	}
	wantValid := int64(len("{\"n\":1,\"s\":\"a\"}\n"))
	if valid != wantValid {
		t.Fatalf("valid prefix %d, want %d", valid, wantValid)
	}
}

func TestScanMidStreamErrorAborts(t *testing.T) {
	sentinel := errors.New("bad line")
	data := "{\"n\":1}\ngarbage\n{\"n\":3}\n"
	var calls int
	_, err := Scan(strings.NewReader(data), func(line []byte) error {
		calls++
		if !json.Valid(line) {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Scan err = %v, want sentinel", err)
	}
}

func TestScanEmptyLines(t *testing.T) {
	data := "{\"n\":1,\"s\":\"a\"}\n\n\r\n{\"n\":2,\"s\":\"b\"}\n"
	var got []rec
	valid, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if valid != int64(len(data)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(data))
	}
}

func TestScanCRLF(t *testing.T) {
	data := "{\"n\":7,\"s\":\"x\"}\r\n"
	var got []rec
	_, err := Scan(strings.NewReader(data), func(line []byte) error {
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != 1 || got[0].N != 7 {
		t.Fatalf("got %+v, want one record n=7", got)
	}
}

func TestScanEmptyInput(t *testing.T) {
	valid, err := Scan(strings.NewReader(""), func([]byte) error {
		t.Fatal("fn called on empty input")
		return nil
	})
	if err != nil || valid != 0 {
		t.Fatalf("Scan empty = (%d, %v), want (0, nil)", valid, err)
	}
}

func TestScanTruncateAppendRoundTrip(t *testing.T) {
	// Simulate the resume discipline: write records, tear the tail,
	// truncate to the valid prefix, append more, re-scan.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 3; i++ {
		if err := w.Encode(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	torn := append([]byte(nil), buf.Bytes()...)
	torn = append(torn, []byte("{\"n\":99")...) // torn append, no newline

	count := func(b []byte) (int, int64) {
		n := 0
		valid, err := Scan(bytes.NewReader(b), func(line []byte) error {
			var r rec
			if err := json.Unmarshal(line, &r); err != nil {
				return err
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n, valid
	}

	n, valid := count(torn)
	if n != 3 {
		t.Fatalf("torn scan: %d records, want 3", n)
	}
	healed := torn[:valid]
	var buf2 bytes.Buffer
	buf2.Write(healed)
	w2 := NewWriter(&buf2)
	if err := w2.Encode(rec{N: 3}); err != nil {
		t.Fatal(err)
	}
	n, _ = count(buf2.Bytes())
	if n != 4 {
		t.Fatalf("after heal+append: %d records, want 4", n)
	}
}

// TestOpenResume walks the resumable-file lifecycle: create with a
// header, tear the last append, resume (torn tail truncated, records
// replayed), and refuse a resume under a different config hash.
func TestOpenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	hdr := Header{Format: "test/v1", ConfigHash: "abc"}
	f, err := Open(path, hdr, false, func(rec) {})
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	for i := 0; i < 2; i++ {
		if err := w.Encode(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	f.WriteString(`{"n":9`) // torn append
	f.Close()

	var seen []int
	f, err = Open(path, hdr, true, func(r rec) { seen = append(seen, r.N) })
	if err != nil {
		t.Fatal(err)
	}
	if err := NewWriter(f).Encode(rec{N: 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if len(seen) != 2 {
		t.Fatalf("resume replayed %v, want records 0 and 1", seen)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"format":"test/v1","config_hash":"abc"}` + "\n" +
		`{"n":0,"s":""}` + "\n" + `{"n":1,"s":""}` + "\n" + `{"n":2,"s":""}` + "\n"
	if string(data) != want {
		t.Fatalf("resumed file:\n%s\nwant:\n%s", data, want)
	}

	if _, err := Open(path, Header{Format: "test/v1", ConfigHash: "other"}, true, func(rec) {}); err == nil {
		t.Fatal("resume under a different config hash must be refused")
	}
	if _, err := Open(path, Header{Format: "test/v2", ConfigHash: "abc"}, true, func(rec) {}); err == nil {
		t.Fatal("resume of a different format must be refused")
	}
}
