package campaign

import (
	"fmt"

	"repro/internal/journal"
)

// FormatV1 is the current results format tag.
const FormatV1 = "risotto-campaign/v1"

// RunFile runs the campaign with results at path. With resume false the
// file is created (truncating any previous contents) and a fresh header
// written; with resume true the existing file's header is validated
// against cfg's hash, already-recorded test indices are skipped, and new
// records are appended after the file's valid prefix (journal.Open).
func RunFile(cfg Config, path string, resume bool) (Summary, error) {
	done := map[int]bool{}
	hdr := journal.Header{Format: FormatV1, ConfigHash: cfg.Hash()}
	out, err := journal.Open(path, hdr, resume, func(rec Record) { done[rec.Idx] = true })
	if err != nil {
		return Summary{}, fmt.Errorf("campaign: %w", err)
	}
	defer out.Close()
	return Run(cfg, out, done)
}
