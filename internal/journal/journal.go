// Package journal is the newline-delimited-JSON discipline shared by the
// campaign and explore results files (internal/campaign, internal/explore)
// and the daemon's persistent translation cache (internal/transcache): a
// Writer that flushes after every record so a killed process loses at most
// the line being written, and a Scan that tolerates exactly that torn
// final line when the file is reopened. Open adds the resumable results
// file on top: a format/config-hash header line, then records. Callers
// keep their own record semantics (checksums, resume keys).
package journal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Writer writes newline-delimited JSON through a buffered writer, flushing
// after every record so a killed producer loses at most the line being
// written (Scan drops the torn fragment on reopen).
type Writer struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewWriter returns a Writer appending records to w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Encode appends one record and flushes it through to the underlying
// writer.
func (w *Writer) Encode(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Scan invokes fn for every complete (newline-terminated) line of r in
// order, skipping empty lines, and returns the byte length of the accepted
// prefix — everything up to and including the last accepted line. A
// reopening producer truncates the file to that length before appending,
// so a torn fragment is physically removed rather than welded onto the
// next record.
//
// The tolerance rules mirror a process killed mid-append:
//
//   - A final fragment with no trailing newline (the torn line of a killed
//     Writer) is dropped silently and excluded from the prefix.
//   - fn rejecting the final complete line (returning an error) likewise
//     drops it: a flush-per-record file can only end in a malformed line
//     through a tear at a lower layer.
//   - fn rejecting any earlier line aborts the scan with fn's error — a
//     malformed line with records after it is real corruption. Callers
//     that prefer to skip such lines (the translation cache, whose
//     checksums make every entry independently verifiable) handle the
//     malformed line inside fn and return nil.
func Scan(r io.Reader, fn func(line []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var valid int64
	var pendingErr error
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			// Any unterminated fragment is a torn tail: drop it. A pending
			// rejection was on what turned out to be the final complete
			// line: drop that too.
			return valid, nil
		}
		if rerr != nil {
			return valid, rerr
		}
		if pendingErr != nil {
			// The rejected line was not the last one — a real corruption.
			return valid, pendingErr
		}
		body := line[:len(line)-1]
		if len(body) > 0 && body[len(body)-1] == '\r' {
			body = body[:len(body)-1]
		}
		if len(body) == 0 {
			valid += int64(len(line))
			continue
		}
		if err := fn(body); err != nil {
			pendingErr = err
			continue
		}
		valid += int64(len(line))
	}
}

// Header is the first line of a resumable results file. It pins the
// configuration the records were produced under: resuming a file whose
// hash differs would silently mix two different result spaces, so Open
// refuses it.
type Header struct {
	// Format identifies the file format and version.
	Format string `json:"format"`
	// ConfigHash is the hash of the producing configuration.
	ConfigHash string `json:"config_hash"`
}

// Read scans a results stream: a Header line of the given format, then
// JSON records of type R, each decoded and passed to fn under Scan's
// torn-tail rules. It returns the header and the byte length of the valid
// prefix.
func Read[R any](r io.Reader, format string, fn func(R)) (Header, int64, error) {
	var hdr Header
	sawHeader := false
	valid, err := Scan(r, func(line []byte) error {
		if sawHeader {
			var rec R
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("bad record line: %w", err)
			}
			fn(rec)
			return nil
		}
		if err := json.Unmarshal(line, &hdr); err != nil {
			return fmt.Errorf("bad header line: %w", err)
		}
		if hdr.Format != format {
			return fmt.Errorf("unknown results format %q, want %q", hdr.Format, format)
		}
		sawHeader = true
		return nil
	})
	if err == nil && !sawHeader {
		err = fmt.Errorf("no %s header", format)
	}
	return hdr, valid, err
}

// Open opens the results file at path for appending records. With resume
// false it creates the file, truncating any previous contents, and writes
// hdr. With resume true it reads the existing file, passing every record
// to fn, refuses a header whose config hash differs from hdr's, and
// truncates the file to its valid prefix before positioning for append:
// appending after a torn fragment would weld two records into one.
func Open[R any](path string, hdr Header, resume bool, fn func(R)) (*os.File, error) {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := NewWriter(f).Encode(hdr); err != nil {
			f.Close()
			return nil, err
		}
		return f, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	got, valid, err := Read(f, hdr.Format, fn)
	if err != nil {
		err = fmt.Errorf("reading %s for resume: %w", path, err)
	} else if got.ConfigHash != hdr.ConfigHash {
		err = fmt.Errorf("%s was produced by config %s, refusing to resume with config %s",
			path, got.ConfigHash, hdr.ConfigHash)
	}
	if err == nil {
		err = f.Truncate(valid)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
