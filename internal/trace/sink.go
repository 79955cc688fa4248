package trace

import (
	"fmt"
	"os"
)

// Sink is a closeable event destination, as produced by NewSink — what
// command-line tools thread into a run and flush afterwards.
type Sink interface {
	Tracer
	// Events returns how many events or records were written.
	Events() int
	// Close flushes and releases the destination.
	Close() error
}

// fileSink owns the file backing a JSONL or Chrome sink.
type fileSink struct {
	inner Sink
	f     *os.File
}

func (s *fileSink) Emit(e Event) { s.inner.Emit(e) }
func (s *fileSink) Events() int  { return s.inner.Events() }
func (s *fileSink) Close() error {
	err := s.inner.Close()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CheckFormat reports whether NewSink knows format, so a command can
// refuse a bad -trace-format before it creates anything.
func CheckFormat(format string) error {
	switch format {
	case "", "jsonl", "chrome":
		return nil
	}
	return fmt.Errorf("trace: unknown format %q (want jsonl or chrome)", format)
}

// NewSink creates path and returns a sink writing the given format:
// "jsonl" (or empty) for the structured event log, "chrome" for the
// Perfetto-loadable trace-event array. Close flushes and closes the
// file.
func NewSink(path, format string) (Sink, error) {
	if err := CheckFormat(format); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var inner Sink
	if format == "chrome" {
		inner = NewChrome(f)
	} else {
		inner = NewJSONL(f)
	}
	return &fileSink{inner: inner, f: f}, nil
}
