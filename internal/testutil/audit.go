package testutil

import (
	"os"
	"testing"

	"ice/internal/core"
)

// AuditCounts reads control-channel audit journals (one per station)
// and returns how many times each RPC method ran across all of them —
// the exactly-once evidence: a command re-executed after a crash,
// requeue or failover shows up as a count above one.
func AuditCounts(t testing.TB, journals ...string) map[string]int {
	t.Helper()
	counts := make(map[string]int)
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := core.ParseAuditJournal(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, e := range entries {
			counts[e.Method]++
		}
	}
	return counts
}
