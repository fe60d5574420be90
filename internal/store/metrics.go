package store

import (
	"strconv"

	"javaflow/internal/obs"
)

// SetJournal attaches the node's structured event journal: compactions
// emit through it from then on, and any replay damage Open discovered
// (skipped records, torn tail bytes) is surfaced immediately as a
// quarantine event — the log healed itself, but an operator should know
// the machine lost bytes. Nil detaches.
func (s *Store) SetJournal(j *obs.Journal) {
	s.journal.Store(j)
	if j != nil && (s.skippedRecords > 0 || s.tornBytes > 0) {
		j.Emit("store", "quarantine", obs.SevWarn, "",
			"skippedRecords", strconv.FormatInt(s.skippedRecords, 10),
			"tornBytes", strconv.FormatInt(s.tornBytes, 10))
	}
}
