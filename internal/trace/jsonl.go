package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// JSONL streams events as one JSON object per line — the archival trace
// format cmd/lips-trace consumes. Field order is fixed by the Event
// struct and all values are either simulated-time or exact integers, so
// two runs of the same seeded simulation write byte-identical logs.
type JSONL struct {
	w      *bufio.Writer
	err    error
	events int
}

// NewJSONL returns a JSONL sink writing to w. Call Close to flush.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Emit implements Tracer. The first encoding or write error sticks and
// is reported by Close.
func (j *JSONL) Emit(e Event) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	if err := j.w.WriteByte('\n'); err != nil {
		j.err = err
		return
	}
	j.events++
}

// Events returns how many events were written.
func (j *JSONL) Events() int { return j.events }

// Close flushes the stream and returns the first error encountered.
func (j *JSONL) Close() error {
	if j.err != nil {
		return j.err
	}
	return j.w.Flush()
}

// DecodeLine parses one JSONL trace line strictly: unknown fields are
// rejected and the event is schema-validated.
func DecodeLine(line []byte) (Event, error) {
	var e Event
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		return Event{}, err
	}
	return e, Validate(e)
}

// ReadAll decodes a whole JSONL trace, reporting the first bad line by
// number. Blank lines are skipped.
func ReadAll(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		e, err := DecodeLine(b)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
