package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"dagsched/internal/fastjson"
	"dagsched/internal/obs"
)

// POST /v1/jobs:batch amortizes the wire overhead the single-job endpoint
// pays per submission: one HTTP request and one body parse carry up to
// Config.MaxBatchItems specs, the placer groups them per shard, and each
// shard group crosses its engine mailbox as ONE message. The engine then
// processes the group in a single group-commit window — under FsyncAlways
// the whole group shares one WAL flush instead of one per record — and the
// per-item verdicts come back in request order, byte-identical to what the
// same specs submitted sequentially would have received. Items fail
// individually: a malformed spec 400s its slot, a full shard mailbox 429s
// its group, and the rest of the batch proceeds.

// BatchItem is one element of the POST /v1/jobs:batch request array: a job
// spec plus an optional per-item idempotency key (the array-body analogue of
// the Idempotency-Key header).
type BatchItem struct {
	JobSpec
	Key string `json:"key,omitempty"`
}

// BatchItemResult is one element of the batch response, in request order.
// Status mirrors what the single-job endpoint would have returned for the
// same spec: 200 with the verdict in Response, or an error code with the
// human-readable message in Error and the machine-readable token in Reason —
// the same {error, reason} pair every top-level error body carries.
type BatchItemResult struct {
	Status   int          `json:"status"`
	Response *JobResponse `json:"response,omitempty"`
	Error    string       `json:"error,omitempty"`
	Reason   string       `json:"reason,omitempty"`
}

// BatchResponse is the POST /v1/jobs:batch response body.
type BatchResponse struct {
	Items []BatchItemResult `json:"items"`
}

// splitJSONArray splits a JSON array body into its element byte ranges
// (views into data) without decoding them, so each element can take the
// fast-path parser independently. Only the array structure is validated
// here; element-level garbage surfaces as that item's parse error.
func splitJSONArray(data []byte) ([][]byte, error) {
	i := fastjson.SkipSpace(data, 0)
	if i >= len(data) || data[i] != '[' {
		return nil, fmt.Errorf("batch body must be a JSON array of job specs")
	}
	i = fastjson.SkipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return nil, nil
	}
	var elems [][]byte
	for {
		start := i
		depth := 0
		inStr := false
		esc := false
	scan:
		for ; i < len(data); i++ {
			c := data[i]
			if inStr {
				switch {
				case esc:
					esc = false
				case c == '\\':
					esc = true
				case c == '"':
					inStr = false
				}
				continue
			}
			switch c {
			case '"':
				inStr = true
			case '{', '[':
				depth++
			case '}', ']':
				if depth == 0 {
					break scan // the array's own closer (or a stray one)
				}
				depth--
			case ',':
				if depth == 0 {
					break scan
				}
			}
		}
		if i >= len(data) || depth != 0 || inStr {
			return nil, fmt.Errorf("unterminated batch array")
		}
		elem := bytes.TrimSpace(data[start:i])
		if len(elem) == 0 {
			return nil, fmt.Errorf("malformed batch array: empty element")
		}
		elems = append(elems, elem)
		switch data[i] {
		case ',':
			i = fastjson.SkipSpace(data, i+1)
		case ']':
			return elems, nil
		default:
			return nil, fmt.Errorf("malformed batch array")
		}
	}
}

func (s *Server) handleBatchPost(w http.ResponseWriter, r *http.Request) {
	received := time.Now()
	reqID := r.Header.Get("X-Request-Id")
	if len(reqID) > maxRequestIDLen {
		writeError(w, http.StatusBadRequest, reasonBadRequest,
			fmt.Sprintf("request id longer than %d bytes", maxRequestIDLen))
		return
	}
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-Id", reqID)
	limit := s.cfg.MaxBodyBytes
	if limit <= 0 {
		limit = DefaultMaxBodyBytes
	}
	// A batch may carry MaxBatchItems specs, so its body budget scales with
	// the per-job limit rather than being squeezed into it.
	limit *= int64(s.cfg.MaxBatchItems)
	rb := getWireBuf()
	defer putWireBuf(rb)
	var err error
	rb.b, err = readAllInto(rb.b, http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, reasonTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, reasonBadRequest, err.Error())
		return
	}
	elems, err := splitJSONArray(rb.b)
	if err != nil {
		writeError(w, http.StatusBadRequest, reasonBadRequest, err.Error())
		return
	}
	if len(elems) == 0 {
		writeError(w, http.StatusBadRequest, reasonBadRequest, "empty batch")
		return
	}
	if len(elems) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge, reasonTooLarge,
			fmt.Sprintf("batch of %d items exceeds max-batch %d", len(elems), s.cfg.MaxBatchItems))
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, reasonDraining, "draining")
		return
	}

	// Parse each element (fast path first) and group the survivors per shard.
	// Keyed items route by key exactly as on the single-job endpoint, so
	// duplicate keys within one batch land on the same shard in order and the
	// later ones collapse onto the stored verdict.
	results := make([]BatchItemResult, len(elems))
	groups := make([][]batchItem, len(s.shards))
	for idx, e := range elems {
		spec, keyView, ok := parseJobSpecFast(e, true)
		key := string(keyView) // copied: it outlives the pooled body buffer
		if !ok {
			var it BatchItem
			dec := json.NewDecoder(bytes.NewReader(e))
			dec.DisallowUnknownFields()
			if derr := dec.Decode(&it); derr != nil {
				results[idx] = BatchItemResult{Status: http.StatusBadRequest, Error: derr.Error(), Reason: reasonBadRequest}
				continue
			}
			spec, key = it.JobSpec, it.Key
		}
		if len(key) > maxIdempotencyKeyLen {
			results[idx] = BatchItemResult{
				Status: http.StatusBadRequest,
				Error:  fmt.Sprintf("idempotency key longer than %d bytes", maxIdempotencyKeyLen),
				Reason: reasonBadRequest,
			}
			continue
		}
		sh, _ := s.placer.routeTraced(key)
		groups[sh.idx] = append(groups[sh.idx], batchItem{spec: spec, key: key, idx: idx})
	}

	// Dispatch every shard group, then collect. Sending all before awaiting
	// any lets the shards work their groups concurrently.
	type dispatched struct {
		sh    *shard
		items []batchItem
		reply chan batchReply
	}
	var (
		sent []dispatched
		tr   *submitTrace // carried by the first dispatched group only
	)
	for gi, group := range groups {
		if len(group) == 0 {
			continue
		}
		sh := s.shards[gi]
		var gtr *submitTrace
		if tr == nil {
			gtr = &submitTrace{reqID: reqID, enqueued: time.Now()}
		}
		msg := batchMsg{items: group, tr: gtr, reply: make(chan batchReply, 1)}
		select {
		case sh.reqs <- msg:
			if gtr != nil {
				tr = gtr
			}
			sent = append(sent, dispatched{sh: sh, items: group, reply: msg.reply})
		default:
			// This shard is behind; backpressure its items, not the batch.
			for _, it := range group {
				results[it.idx] = BatchItemResult{Status: http.StatusTooManyRequests, Error: "submission queue full", Reason: reasonQueueFull}
			}
		}
	}
	for _, d := range sent {
		rep, ok := await(d.sh, d.reply)
		if !ok {
			// Enqueued but never dequeued: the engine drained first.
			for _, it := range d.items {
				results[it.idx] = BatchItemResult{Status: http.StatusServiceUnavailable, Error: "draining", Reason: reasonDraining}
			}
			continue
		}
		for k, it := range d.items {
			r := rep.replies[k]
			if r.status == http.StatusOK {
				resp := r.resp
				results[it.idx] = BatchItemResult{Status: http.StatusOK, Response: &resp}
			} else {
				results[it.idx] = BatchItemResult{Status: r.status, Error: r.err, Reason: cmp.Or(r.reason, reasonInternal)}
			}
		}
	}

	now := time.Now()
	s.metrics.observe("serve.http.jobs_batch_us", float64(now.Sub(received).Microseconds()))
	s.metrics.observe("serve.http.batch_items", float64(len(elems)))
	rt := obs.ReqTrace{ID: reqID, Shard: -1, Route: "batch", Stages: make([]obs.Stage, 0, 4)}
	rt.Stages = append(rt.Stages, obs.Stage{Name: "received", At: received})
	if tr != nil {
		for _, st := range []obs.Stage{
			{Name: "dequeued", At: tr.dequeued},
			{Name: "committed", At: tr.committed},
		} {
			if !st.At.IsZero() {
				rt.Stages = append(rt.Stages, st)
			}
		}
	}
	rt.Stages = append(rt.Stages, obs.Stage{Name: "replied", At: now})
	s.traces.Add(rt)
	if lg := s.logger(); lg.Enabled(r.Context(), slog.LevelDebug) {
		lg.Debug("batch", "reqId", reqID, "items", len(elems), "us", now.Sub(received).Microseconds())
	}
	writeBatchResponse(w, results)
}

// writeBatchResponse renders the batch body through the fast encoder,
// falling back to encoding/json when any item is off the fast path (a
// non-plain error string, an unencodable response). Both paths produce the
// same bytes for fast-path-able content.
func writeBatchResponse(w http.ResponseWriter, items []BatchItemResult) {
	rb := getWireBuf()
	b := append(rb.b, `{"items":[`...)
	ok := true
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		it := &items[i]
		b = append(b, `{"status":`...)
		b = strconv.AppendInt(b, int64(it.Status), 10)
		if it.Response != nil {
			b = append(b, `,"response":`...)
			if b, ok = appendJobResponse(b, it.Response); !ok {
				break
			}
		}
		if it.Error != "" {
			if !fastjson.Plain(it.Error) {
				ok = false
				break
			}
			b = append(b, `,"error":"`...)
			b = append(b, it.Error...)
			b = append(b, '"')
		}
		if it.Reason != "" {
			if !fastjson.Plain(it.Reason) {
				ok = false
				break
			}
			b = append(b, `,"reason":"`...)
			b = append(b, it.Reason...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	rb.b = b
	if !ok {
		putWireBuf(rb)
		writeJSON(w, http.StatusOK, BatchResponse{Items: items})
		return
	}
	rb.b = append(rb.b, ']', '}', '\n')
	w.Header().Set("Content-Type", "application/json")
	// The body is fully rendered, so declare its length: the response goes
	// out identity-framed in one write instead of chunked.
	w.Header().Set("Content-Length", strconv.Itoa(len(rb.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rb.b)
	putWireBuf(rb)
}
