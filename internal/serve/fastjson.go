package serve

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"sync"

	"dagsched/internal/fastjson"
)

// The wire fast path. BENCH_PR8 put the HTTP+JSON submission route at ~15×
// the engine-path cost, most of it encoding/json reflection and per-request
// allocation. Scalar specs — {"w":..,"l":..,"deadline":..,"profit":..},
// which is what a high-rate client sends — don't need a general JSON
// machine: parseJobSpecFast scans them in one pass over the request bytes
// with zero allocations, and appendJobResponse renders the verdict into a
// pooled buffer byte-identically to encoding/json. Anything off the fast
// path — a dag or curve field, an unknown key, an escaped string, an
// exponent-form or over-long number — returns ok=false and the caller falls
// back to encoding/json, which both handles it and produces the canonical
// error shapes for genuinely malformed input. The fallback is therefore
// transparent: the fast path never changes what the client sees, only what
// it costs.

// wireBuf is pooled request/response scratch for the wire fast path,
// extending the engine's buffer-reuse idiom to the HTTP layer.
type wireBuf struct{ b []byte }

var wireBufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 4096)} }}

func getWireBuf() *wireBuf { return wireBufPool.Get().(*wireBuf) }

func putWireBuf(w *wireBuf) {
	if cap(w.b) > 1<<20 {
		return // an oversized body grew it; let the GC take it
	}
	w.b = w.b[:0]
	wireBufPool.Put(w)
}

// readAllInto reads r to EOF into dst (grown as needed), allocating only
// when dst's capacity is exceeded — with a pooled dst the steady state is
// zero allocations.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// parseJobSpecFast decodes a scalar job spec — an object whose keys are
// drawn from w, l, deadline, profit (plus key when allowKey, for batch
// items) with plain numeric or string values. ok=false means the bytes are
// off the fast path and the caller must fall back to encoding/json; the
// returned key is a view into data, valid only while data is. Trailing
// bytes after the object are ignored, matching json.Decoder.Decode's
// one-value read on the sequential endpoint.
func parseJobSpecFast(data []byte, allowKey bool) (spec JobSpec, key []byte, ok bool) {
	i := fastjson.SkipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return JobSpec{}, nil, false
	}
	i = fastjson.SkipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return spec, nil, true // {}: build() rejects it exactly like the slow path
	}
	for {
		name, n, sok := fastjson.ParseString(data, i)
		if !sok {
			return JobSpec{}, nil, false
		}
		i = fastjson.SkipSpace(data, n)
		if i >= len(data) || data[i] != ':' {
			return JobSpec{}, nil, false
		}
		i = fastjson.SkipSpace(data, i+1)
		switch {
		case string(name) == "w":
			v, n, vok := fastjson.ParseInt(data, i)
			if !vok {
				return JobSpec{}, nil, false
			}
			spec.W, i = v, n
		case string(name) == "l":
			v, n, vok := fastjson.ParseInt(data, i)
			if !vok {
				return JobSpec{}, nil, false
			}
			spec.L, i = v, n
		case string(name) == "deadline":
			v, n, vok := fastjson.ParseInt(data, i)
			if !vok {
				return JobSpec{}, nil, false
			}
			spec.Deadline, i = v, n
		case string(name) == "profit":
			// A '{' here is a structured profit object: off the fast path.
			v, n, vok := fastjson.ParseDecimal(data, i)
			if !vok {
				return JobSpec{}, nil, false
			}
			spec.Profit, i = ScalarProfit(v), n
		case allowKey && string(name) == "key":
			s, n, vok := fastjson.ParseString(data, i)
			if !vok {
				return JobSpec{}, nil, false
			}
			key, i = s, n
		default:
			// dag, curve, unknown, or duplicate-in-spirit: the general
			// decoder owns it (and owns rejecting it).
			return JobSpec{}, nil, false
		}
		i = fastjson.SkipSpace(data, i)
		if i >= len(data) {
			return JobSpec{}, nil, false
		}
		switch data[i] {
		case ',':
			i = fastjson.SkipSpace(data, i+1)
		case '}':
			return spec, key, true
		default:
			return JobSpec{}, nil, false
		}
	}
}

// appendJobResponse appends r marshaled byte-identically to
// json.Marshal(r): same field order, same omitempty behavior, same float
// formatting. ok=false (non-plain string, non-finite float) means the
// caller must fall back to encoding/json.
func appendJobResponse(b []byte, r *JobResponse) ([]byte, bool) {
	if !fastjson.Plain(string(r.Decision)) || !fastjson.Plain(r.Reason) || !fastjson.Plain(r.Commitment) {
		return b, false
	}
	if r.Plan != nil && (math.IsNaN(r.Plan.X) || math.IsInf(r.Plan.X, 0) ||
		math.IsNaN(r.Plan.Density) || math.IsInf(r.Plan.Density, 0)) {
		return b, false
	}
	b = append(b, '{')
	if r.ID != 0 {
		b = append(b, `"id":`...)
		b = strconv.AppendInt(b, int64(r.ID), 10)
		b = append(b, ',')
	}
	b = append(b, `"release":`...)
	b = strconv.AppendInt(b, r.Release, 10)
	b = append(b, `,"decision":"`...)
	b = append(b, r.Decision...)
	b = append(b, '"')
	if r.Reason != "" {
		b = append(b, `,"reason":"`...)
		b = append(b, r.Reason...)
		b = append(b, '"')
	}
	if r.Commitment != "" {
		b = append(b, `,"commitment":"`...)
		b = append(b, r.Commitment...)
		b = append(b, '"')
	}
	if r.Replayed {
		b = append(b, `,"replayed":true`...)
	}
	if r.Plan != nil {
		b = append(b, `,"plan":{"alloc":`...)
		b = strconv.AppendInt(b, int64(r.Plan.Alloc), 10)
		b = append(b, `,"x":`...)
		b = fastjson.AppendFloat(b, r.Plan.X)
		b = append(b, `,"density":`...)
		b = fastjson.AppendFloat(b, r.Plan.Density)
		b = append(b, `,"good":`...)
		b = strconv.AppendBool(b, r.Plan.Good)
		b = append(b, '}')
	}
	b = append(b, '}')
	return b, true
}

// appendWALJob renders a WALJob record byte-identically to json.Marshal —
// the accepted-submission hot path of the durable log. Falls back (ok=false)
// whenever any string needs escaping or the job wire bytes would not survive
// Marshal's RawMessage compaction verbatim; the caller then uses
// encoding/json, so the on-disk format is one encoder's output either way.
// A record marked jobPlain skips the scan of its job bytes.
func appendWALJob(b []byte, rec *WALJob) ([]byte, bool) {
	if !fastjson.Plain(rec.Type) || !fastjson.Plain(rec.Key) || !fastjson.Plain(rec.ReqID) || !(rec.jobPlain || fastjson.RawPlain(rec.Job)) {
		return b, false
	}
	b = append(b, `{"type":"`...)
	b = append(b, rec.Type...)
	b = append(b, '"')
	if rec.Key != "" {
		b = append(b, `,"key":"`...)
		b = append(b, rec.Key...)
		b = append(b, '"')
	}
	if rec.ReqID != "" {
		b = append(b, `,"reqId":"`...)
		b = append(b, rec.ReqID...)
		b = append(b, '"')
	}
	b = append(b, `,"resp":`...)
	var ok bool
	if b, ok = appendJobResponse(b, &rec.Resp); !ok {
		return b, false
	}
	b = append(b, `,"job":`...)
	b = append(b, rec.Job...)
	b = append(b, '}')
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendFrame wraps payload in the WAL line format — crc32c as eight hex
// digits, a space, the payload, a newline — appending in place where
// frameRecord would allocate.
func appendFrame(b, payload []byte) []byte {
	crc := crc32.Checksum(payload, walCRC)
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, hexDigits[(crc>>shift)&0xf])
	}
	b = append(b, ' ')
	b = append(b, payload...)
	b = append(b, '\n')
	return b
}

// The recovery codec. A restart decodes every record of the checkpoint and
// the WAL suffix, so the durable record shapes get the same treatment as the
// request path: a one-pass scanner for the exact shape the server writes,
// and encoding/json for everything else. The decoders accept only the
// canonical key order (type, key, reqId, resp, job; the Checkpoint field
// order), plain strings, and numbers whose value is decided exactly; any
// other input — reordered or case-folded keys, escapes, null for an object,
// a value the scanner cannot vouch for — makes the caller decode that record
// with json.Unmarshal instead, so what recovery reads never depends on which
// path read it. The checkpoint encoder writes only what surrounds the jobs
// array — the array itself is streamed from disk (checkpoint.go) — and hands
// the header, idempotency table and telemetry summary to json.Marshal.

// wireString converts a decoded string, sharing the constant for the values
// nearly every record repeats, so a recovered history does not hold one
// copy of "admitted" per job.
func wireString(b []byte) string {
	switch string(b) {
	case "job":
		return "job"
	case string(DecisionAdmitted):
		return string(DecisionAdmitted)
	case string(DecisionParked):
		return string(DecisionParked)
	case string(DecisionRejected):
		return string(DecisionRejected)
	case string(DecisionAccepted):
		return string(DecisionAccepted)
	case CommitmentOnAdmission:
		return CommitmentOnAdmission
	case CommitmentNone:
		return CommitmentNone
	case CommitmentDelta:
		return CommitmentDelta
	case CommitmentOnArrival:
		return CommitmentOnArrival
	case "band-full":
		return "band-full"
	case "not-delta-good":
		return "not-delta-good"
	}
	return string(b)
}

// parseJobResponseFast decodes a JobResponse in appendJobResponse's field
// order starting at data[i]. canon reports that the bytes are exactly what
// appendJobResponse writes for the decoded value: no member the encoder
// omits (a zero id, an empty reason or commitment, replayed false), no
// string it would escape, no -0, every float in its shortest form.
func parseJobResponseFast(data []byte, i int, r *JobResponse) (next int, canon, ok bool) {
	var s []byte
	var start int
	if i, ok = fastjson.HasLit(data, i, `{`); !ok {
		return i, false, false
	}
	canon = true
	if next, has := fastjson.HasLit(data, i, `"id":`); has {
		v, n, vok := fastjson.ParseInt(data, next)
		if !vok {
			return n, false, false
		}
		r.ID = int(v)
		canon = v != 0
		if i, ok = fastjson.HasLit(data, n, `,`); !ok {
			return i, false, false
		}
	}
	if i, ok = fastjson.HasLit(data, i, `"release":`); !ok {
		return i, false, false
	}
	start = i
	if r.Release, i, ok = fastjson.ParseInt(data, i); !ok {
		return i, false, false
	}
	canon = canon && canonInt(data[start:i])
	if i, ok = fastjson.HasLit(data, i, `,"decision":`); !ok {
		return i, false, false
	}
	if s, i, ok = fastjson.ParseString(data, i); !ok {
		return i, false, false
	}
	r.Decision = DecisionString(wireString(s))
	canon = canon && fastjson.Plain(string(r.Decision))
	if next, has := fastjson.HasLit(data, i, `,"reason":`); has {
		if s, i, ok = fastjson.ParseString(data, next); !ok {
			return i, false, false
		}
		r.Reason = wireString(s)
		canon = canon && r.Reason != "" && fastjson.Plain(r.Reason)
	}
	if next, has := fastjson.HasLit(data, i, `,"commitment":`); has {
		if s, i, ok = fastjson.ParseString(data, next); !ok {
			return i, false, false
		}
		r.Commitment = wireString(s)
		canon = canon && r.Commitment != "" && fastjson.Plain(r.Commitment)
	}
	if next, has := fastjson.HasLit(data, i, `,"replayed":`); has {
		if r.Replayed, i, ok = fastjson.ParseBool(data, next); !ok {
			return i, false, false
		}
		canon = canon && r.Replayed
	}
	if next, has := fastjson.HasLit(data, i, `,"plan":{"alloc":`); has {
		p := &PlanInfo{}
		v, n, vok := fastjson.ParseInt(data, next)
		if !vok {
			return n, false, false
		}
		p.Alloc = int(v)
		canon = canon && canonInt(data[next:n])
		if i, ok = fastjson.HasLit(data, n, `,"x":`); !ok {
			return i, false, false
		}
		start = i
		if p.X, i, ok = fastjson.ParseFloat(data, i); !ok {
			return i, false, false
		}
		canon = canon && fastjson.CanonicalFloat(data[start:i], p.X)
		if i, ok = fastjson.HasLit(data, i, `,"density":`); !ok {
			return i, false, false
		}
		start = i
		if p.Density, i, ok = fastjson.ParseFloat(data, i); !ok {
			return i, false, false
		}
		canon = canon && fastjson.CanonicalFloat(data[start:i], p.Density)
		if i, ok = fastjson.HasLit(data, i, `,"good":`); !ok {
			return i, false, false
		}
		if p.Good, i, ok = fastjson.ParseBool(data, i); !ok {
			return i, false, false
		}
		if i, ok = fastjson.HasLit(data, i, `}`); !ok {
			return i, false, false
		}
		r.Plan = p
	}
	i, ok = fastjson.HasLit(data, i, `}`)
	return i, canon && ok, ok
}

// canonInt reports whether span, an integer fastjson.ParseInt accepted, is
// what strconv.AppendInt writes for its value: ParseInt refuses leading
// zeros, so only -0 is not.
func canonInt(span []byte) bool {
	return len(span) < 2 || span[0] != '-' || span[1] != '0'
}

// parseWALJobFast decodes a WALJob record in appendWALJob's field order
// starting at data[i]. The job member is delimited, not validated: its end
// is found by fastjson.SkipStructure, so rec.Job (a view into data, capped
// at the value's end) is the record's job value if the record is valid
// JSON at all, and the record is valid if and only if rec.Job is. The
// caller must therefore decode rec.Job with a jobDecoder, which validates
// as it decodes, or check it with json.Valid, before trusting the record.
// When the record's bytes are exactly what appendWALJob writes for the
// decoded value (canon; see parseJobResponseFast), rec.raw is set to them,
// so a checkpoint copies them instead of encoding the record again.
func parseWALJobFast(data []byte, i int, rec *WALJob) (int, bool) {
	var ok bool
	var s []byte
	start := i
	if i, ok = fastjson.HasLit(data, i, `{"type":`); !ok {
		return i, false
	}
	if s, i, ok = fastjson.ParseString(data, i); !ok {
		return i, false
	}
	rec.Type = wireString(s)
	canon := fastjson.Plain(rec.Type)
	if next, has := fastjson.HasLit(data, i, `,"key":`); has {
		if s, i, ok = fastjson.ParseString(data, next); !ok {
			return i, false
		}
		rec.Key = string(s)
		canon = canon && rec.Key != "" && fastjson.Plain(rec.Key)
	}
	if next, has := fastjson.HasLit(data, i, `,"reqId":`); has {
		if s, i, ok = fastjson.ParseString(data, next); !ok {
			return i, false
		}
		rec.ReqID = string(s)
		canon = canon && rec.ReqID != "" && fastjson.Plain(rec.ReqID)
	}
	if i, ok = fastjson.HasLit(data, i, `,"resp":`); !ok {
		return i, false
	}
	var respCanon bool
	if i, respCanon, ok = parseJobResponseFast(data, i, &rec.Resp); !ok {
		return i, false
	}
	if i, ok = fastjson.HasLit(data, i, `,"job":`); !ok {
		return i, false
	}
	end, plain, ok := fastjson.SkipStructure(data, i)
	if !ok {
		return end, false
	}
	rec.Job = data[i:end:end]
	if end, ok = fastjson.HasLit(data, end, `}`); !ok {
		return end, false
	}
	if canon && respCanon && plain {
		rec.raw = data[start:end:end]
	}
	return end, true
}

// decodeWALJob decodes one WAL record: the fast path for the shape the
// server writes, json.Unmarshal for anything else (including every record
// the fast path cannot delimit, so the error is encoding/json's). A record
// the fast path decodes carries an unvalidated job member; see
// parseWALJobFast for what the caller owes it. A job record adopts data
// (rec.raw) when it is exactly what the WAL encoder writes for it.
func decodeWALJob(data []byte, rec *WALJob) error {
	if end, ok := parseWALJobFast(data, 0, rec); !ok || fastjson.SkipSpace(data, end) != len(data) {
		*rec = WALJob{}
		if err := json.Unmarshal(data, rec); err != nil {
			return err
		}
	}
	if rec.Type == "job" {
		adopt(rec, data)
	}
	return nil
}

// ckptBody is where a checkpoint payload holds its jobs array body:
// payload[start:end], the records between '[' and ']'. Only the fast
// decoder locates it (known).
type ckptBody struct {
	start, end int
	known      bool
}

// parseCheckpointFast decodes a Checkpoint in its struct field order. The
// header, idempotency table and summary spans go to json.Unmarshal (small,
// and maps); the jobs array — nearly all of the bytes — is scanned record
// by record with parseWALJobFast, whose job members are delimited but not
// validated. A record off that shape is delimited with
// fastjson.SkipStructure and decoded alone by json.Unmarshal, so the others
// keep their bytes and the array body stays located. Every record adopts
// its bytes when they are exactly what the WAL encoder writes for it.
func parseCheckpointFast(data []byte, cp *Checkpoint) (body ckptBody, ok bool) {
	var s []byte
	var v int64
	i := 0
	if i, ok = fastjson.HasLit(data, i, `{"type":`); !ok {
		return body, false
	}
	if s, i, ok = fastjson.ParseString(data, i); !ok {
		return body, false
	}
	cp.Type = string(s)
	if i, ok = fastjson.HasLit(data, i, `,"header":`); !ok {
		return body, false
	}
	if i, ok = unmarshalSpan(data, i, &cp.Header); !ok {
		return body, false
	}
	if i, ok = fastjson.HasLit(data, i, `,"clock":`); !ok {
		return body, false
	}
	if cp.Clock, i, ok = fastjson.ParseInt(data, i); !ok {
		return body, false
	}
	if i, ok = fastjson.HasLit(data, i, `,"nextId":`); !ok {
		return body, false
	}
	if v, i, ok = fastjson.ParseInt(data, i); !ok {
		return body, false
	}
	cp.NextID = int(v)
	body = ckptBody{start: i, end: i, known: true}
	if next, has := fastjson.HasLit(data, i, `,"jobs":[`); has {
		i = next
		body.start = i
		cp.Jobs = []WALJob{}
		if next, has := fastjson.HasLit(data, i, `]`); has {
			body.end = i
			i = next
		} else {
			for {
				cp.Jobs = append(cp.Jobs, WALJob{})
				rec := &cp.Jobs[len(cp.Jobs)-1]
				start := i
				if i, ok = parseWALJobFast(data, start, rec); !ok {
					*rec = WALJob{}
					if i, ok = unmarshalSpan(data, start, rec); !ok {
						return body, false
					}
				}
				adopt(rec, data[start:i])
				if next, has := fastjson.HasLit(data, i, `,`); has {
					i = next
					continue
				}
				body.end = i
				if i, ok = fastjson.HasLit(data, i, `]`); !ok {
					return body, false
				}
				break
			}
		}
	}
	if next, has := fastjson.HasLit(data, i, `,"idem":`); has {
		if i, ok = unmarshalSpan(data, next, &cp.Idem); !ok {
			return body, false
		}
	}
	if i, ok = fastjson.HasLit(data, i, `,"summary":`); !ok {
		return body, false
	}
	if i, ok = unmarshalSpan(data, i, &cp.Summary); !ok {
		return body, false
	}
	if i, ok = fastjson.HasLit(data, i, `,"fingerprint":`); !ok {
		return body, false
	}
	if cp.Fingerprint, i, ok = fastjson.ParseUint(data, i); !ok {
		return body, false
	}
	if i, ok = fastjson.HasLit(data, i, `,"checkpoints":`); !ok {
		return body, false
	}
	if cp.Checkpoints, i, ok = fastjson.ParseInt(data, i); !ok {
		return body, false
	}
	if i, ok = fastjson.HasLit(data, i, `}`); !ok {
		return body, false
	}
	return body, fastjson.SkipSpace(data, i) == len(data)
}

// unmarshalSpan decodes the JSON object or array at data[i] into v with
// json.Unmarshal, which validates what fastjson.SkipStructure delimited,
// returning the index after it.
func unmarshalSpan(data []byte, i int, v any) (int, bool) {
	end, _, ok := fastjson.SkipStructure(data, i)
	if !ok || json.Unmarshal(data[i:end], v) != nil {
		return end, false
	}
	return end, true
}

// decodeCheckpoint decodes a checkpoint payload: the fast path for the shape
// the server writes, json.Unmarshal for anything else. As with
// decodeWALJob, the job members of a fast-path decode are not validated.
func decodeCheckpoint(data []byte, cp *Checkpoint) (ckptBody, error) {
	if body, ok := parseCheckpointFast(data, cp); ok {
		return body, nil
	}
	*cp = Checkpoint{}
	return ckptBody{}, json.Unmarshal(data, cp)
}

// checkpointHeaderPrefix reads the serving header from the start of a
// framed checkpoint file without decoding (or checksumming) the rest. The
// caller must not trust it further than choosing the configuration to load
// the directory under: loadState verifies the frame and compares the full
// checkpoint's header against it. ok=false when the prefix is off the
// canonical shape or too short to hold the header.
func checkpointHeaderPrefix(data []byte) (ReplayHeader, bool) {
	var h ReplayHeader
	if len(data) < 9 || data[8] != ' ' {
		return h, false
	}
	i, ok := fastjson.HasLit(data, 9, `{"type":"checkpoint","header":`)
	if !ok {
		return h, false
	}
	if _, ok = unmarshalSpan(data, i, &h); !ok {
		return ReplayHeader{}, false
	}
	return h, true
}

// appendCheckpointHead appends the part of json.Marshal(cp) before the
// first record of its jobs array — through `,"jobs":[` when jobs is set, else
// through the nextId member — and appendCheckpointTail the part after the
// last record. cp.Jobs itself is not read: the caller streams the records.
func appendCheckpointHead(b []byte, cp *Checkpoint, jobs bool) ([]byte, error) {
	b = append(b, `{"type":`...)
	b, err := appendMarshal(b, cp.Type)
	if err != nil {
		return b, err
	}
	b = append(b, `,"header":`...)
	if b, err = appendMarshal(b, cp.Header); err != nil {
		return b, err
	}
	b = append(b, `,"clock":`...)
	b = strconv.AppendInt(b, cp.Clock, 10)
	b = append(b, `,"nextId":`...)
	b = strconv.AppendInt(b, int64(cp.NextID), 10)
	if jobs {
		b = append(b, `,"jobs":[`...)
	}
	return b, nil
}

func appendCheckpointTail(b []byte, cp *Checkpoint, jobs bool) ([]byte, error) {
	if jobs {
		b = append(b, ']')
	}
	var err error
	if len(cp.Idem) > 0 {
		b = append(b, `,"idem":`...)
		if b, err = appendMarshal(b, cp.Idem); err != nil {
			return b, err
		}
	}
	b = append(b, `,"summary":`...)
	if b, err = appendMarshal(b, cp.Summary); err != nil {
		return b, err
	}
	b = append(b, `,"fingerprint":`...)
	b = strconv.AppendUint(b, cp.Fingerprint, 10)
	b = append(b, `,"checkpoints":`...)
	b = strconv.AppendInt(b, cp.Checkpoints, 10)
	return append(b, '}'), nil
}

func appendMarshal(b []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	return append(b, payload...), err
}

// internableTail reports whether a job tail is graph, profit and an
// optional commitment member with valid values, then the closing brace and
// nothing after it. Such a tail has no member that could override the id or
// release (encoding/json lets a later duplicate, or a case-folded "ID", win),
// so two records with equal tails decode to jobs that differ only in those
// two fields.
func internableTail(tail []byte) bool {
	i := 0
	for _, member := range [...]string{`,"graph":`, `,"profit":`, `,"commitment":`} {
		next, has := fastjson.HasLit(tail, i, member)
		if !has {
			if member == `,"commitment":` {
				break
			}
			return false
		}
		var ok bool
		if i, ok = fastjson.SkipValue(tail, next); !ok {
			return false
		}
	}
	i, ok := fastjson.HasLit(tail, i, `}`)
	return ok && i == len(tail)
}
