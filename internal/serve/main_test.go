package serve

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestMain checks every history a shard recovers in this package's tests —
// every daemon-written image they build, crash images included — against
// fill's re-encoding of the same records: the bytes recovery adopted as it
// read them must be exactly the bytes it would otherwise have encoded.
func TestMain(m *testing.M) {
	var mu sync.Mutex
	var diffs []string
	recoveredHistoryHook = func(dir string, h *encodedHistory, recs []WALJob) {
		var want encodedHistory
		err := want.fill(withoutRaw(recs))
		got, enc := bytes.Join(h.chunks, nil), bytes.Join(want.chunks, nil)
		if err != nil || !bytes.Equal(got, enc) || h.n != want.n {
			mu.Lock()
			diffs = append(diffs, fmt.Sprintf("%s: recovered history differs from its re-encoding (%v)\n got %s\nwant %s", dir, err, got, enc))
			mu.Unlock()
		}
	}
	code := m.Run()
	if len(diffs) > 0 {
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		code = 1
	}
	os.Exit(code)
}
