package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"dagsched/internal/fastjson"
)

// POST /v1/jobs:batch amortizes the wire overhead the single-job endpoint
// pays per submission: one HTTP request and one body parse carry up to
// Config.MaxBatchItems specs, the placer groups them per shard, and each
// shard group is committed under ONE hold of the shard's lock, with one
// WAL write — under FsyncAlways the whole group
// shares one fsync instead of one per submission — and the per-item
// verdicts come back in request order, byte-identical to what the same
// specs submitted sequentially would have received: a single submission
// takes the same path as a group of one (Server.submit). Items fail
// individually: a malformed spec 400s its slot, a shard with a full queue
// 429s its group, and the rest of the batch proceeds.

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
	items, ok := s.submit(w, r, true, "", s.parseBatch)
	if !ok {
		return
	}
	results := make([]BatchItemResult, len(items))
	for k := range items {
		if rep := &items[k].rep; rep.status == http.StatusOK {
			results[k] = BatchItemResult{Status: rep.status, Response: &rep.resp}
		} else {
			results[k] = BatchItemResult{Status: rep.status, Error: rep.err, Reason: rep.reason}
		}
	}
	writeBatchResponse(w, results)
}

// parseBatch splits a batch body into its items and parses each (fast path
// first). A malformed item gets its 400 verdict here and is not dispatched.
func (s *Server) parseBatch(body []byte) ([]batchItem, int, string) {
	elems, err := splitJSONArray(body)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if len(elems) == 0 {
		return nil, http.StatusBadRequest, "empty batch"
	}
	if len(elems) > s.cfg.MaxBatchItems {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d items exceeds max-batch %d", len(elems), s.cfg.MaxBatchItems)
	}
	items := make([]batchItem, len(elems))
	for k, e := range elems {
		it := &items[k]
		spec, keyView, ok := parseJobSpecFast(e, true)
		it.spec, it.key = spec, string(keyView) // copied: it outlives the pooled body buffer
		if !ok {
			var bi BatchItem
			dec := json.NewDecoder(bytes.NewReader(e))
			dec.DisallowUnknownFields()
			if derr := dec.Decode(&bi); derr != nil {
				it.rep = submitReply{status: http.StatusBadRequest, err: derr.Error(), reason: reasonBadRequest}
				continue
			}
			it.spec, it.key = bi.JobSpec, bi.Key
		}
		if len(it.key) > maxIdempotencyKeyLen {
			it.rep = submitReply{
				status: http.StatusBadRequest,
				err:    fmt.Sprintf("idempotency key longer than %d bytes", maxIdempotencyKeyLen),
				reason: reasonBadRequest,
			}
		}
	}
	return items, 0, ""
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
