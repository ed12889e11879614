package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// TestMain holds every shard that recovers in this package's tests — over
// every daemon-written image they build, crash images included — to the
// records recovery decoded. Where the shard will stream its history from
// disk, the bytes it will copy must be exactly json.Marshal's for those
// records, comma-joined; and its first checkpoint, streamed or encoded at
// start, must be frameRecord(json.Marshal(cp)) with cp.Jobs those records.
func TestMain(m *testing.M) {
	var mu sync.Mutex
	var diffs []string
	fail := func(err error) {
		mu.Lock()
		diffs = append(diffs, err.Error())
		mu.Unlock()
	}
	recovered := map[*shard][]WALJob{}
	recoveredHook = func(sh *shard, recs []WALJob) {
		recs = withoutRaw(recs)
		if err := checkStreamedHistory(sh, recs); err != nil {
			fail(fmt.Errorf("recovered history on disk: %w", err))
		}
		mu.Lock()
		recovered[sh] = recs
		mu.Unlock()
	}
	checkpointHook = func(sh *shard) {
		mu.Lock()
		recs, ok := recovered[sh]
		delete(recovered, sh)
		mu.Unlock()
		if !ok {
			return
		}
		if err := checkCheckpointOf(sh.walDir, recs); err != nil {
			fail(fmt.Errorf("first checkpoint after recovery: %w", err))
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

// checkCheckpointOf reports how dir's checkpoint.json differs from
// frameRecord(json.Marshal(cp)), where cp is the checkpoint the file holds
// with the history recs in front of its jobs. Records the file holds beyond
// recs, which the shard accepted after recs was decoded, are taken as they
// decode.
func checkCheckpointOf(dir string, recs []WALJob) error {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		return err
	}
	payload, err := parseFrame(bytes.TrimSuffix(data, []byte("\n")))
	if err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return fmt.Errorf("%s: %w", dir, err)
	}
	if len(cp.Jobs) < len(recs) {
		return fmt.Errorf("%s: checkpoint holds %d jobs, the history %d", dir, len(cp.Jobs), len(recs))
	}
	cp.Jobs = append(slices.Clone(recs), cp.Jobs[len(recs):]...)
	want, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	if want = frameRecord(want); !bytes.Equal(data, want) {
		return fmt.Errorf("%s: checkpoint differs from the encoded history\n got %s\nwant %s", dir, data, want)
	}
	return nil
}

// checkStreamedHistory reports how the history a recovered shard will copy
// into its next checkpoint — its checkpoint's jobs array, then the WAL's
// job payloads behind the header — differs from json.Marshal of recs,
// comma-joined. A shard that has not located its checkpoint normalizes at
// start instead; its checkpoint is checked when written.
func checkStreamedHistory(sh *shard, recs []WALJob) error {
	if sh.ckpt.size == 0 {
		return nil
	}
	var got []byte
	if sh.ckpt.n > 0 {
		data, err := os.ReadFile(filepath.Join(sh.walDir, checkpointFileName))
		if err != nil {
			return err
		}
		got = append(got, data[sh.ckpt.start:sh.ckpt.end]...)
	}
	payloads, _, err := scanWAL(filepath.Join(sh.walDir, walFileName))
	if err != nil {
		return err
	}
	for k, p := range payloads {
		if k > 0 && bytes.HasPrefix(p, jobPrefix) {
			if len(got) > 0 {
				got = append(got, ',')
			}
			got = append(got, p...)
		}
	}
	var want []byte
	for k := range recs {
		b, err := json.Marshal(&recs[k])
		if err != nil {
			return err
		}
		if k > 0 {
			want = append(want, ',')
		}
		want = append(want, b...)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: the shard would stream\n %s\nits records encode as\n %s", sh.walDir, got, want)
	}
	return nil
}
