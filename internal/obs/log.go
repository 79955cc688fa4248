package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging, stdlib log/slog only. Every CLI takes the same
// two flags (-log-level, -log-format) through NewCLI and hands the
// resulting *slog.Logger down; libraries receive a logger, never build
// one. Shared attribute keys keep run/job/epoch/tenant greppable across
// layers:
//
//	log.Info("epoch planned", obs.LogEpoch, 7, obs.LogTenant, "alice")
//
// Batch CLIs log their config at debug (stdout results stay the
// interface); the serve daemon logs lifecycle at info and slow-epoch /
// shed events at warn.

// Shared slog attribute keys.
const (
	LogRun    = "run"
	LogJob    = "job"
	LogEpoch  = "epoch"
	LogTenant = "tenant"
)

// LogOptions carries the two logging flags.
type LogOptions struct {
	Level  string // debug, info, warn, error or off
	Format string // text or json
}

// Register registers the logging flags on an explicit flag set.
func (o *LogOptions) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.Level, "log-level", "info", "log level: debug, info, warn, error or off")
	fs.StringVar(&o.Format, "log-format", "text", "log format: text or json")
}

// Logger builds the configured *slog.Logger writing to w. Level "off"
// returns NopLogger; unknown levels or formats are an error.
func (o LogOptions) Logger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(o.Level) {
	case "debug":
		level = slog.LevelDebug
	case "info", "":
		level = slog.LevelInfo
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	case "off", "none":
		return NopLogger(), nil
	default:
		return nil, fmt.Errorf("obs: unknown log level %q", o.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(o.Format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q", o.Format)
	}
}

// NopLogger returns a logger whose handler rejects every level — the
// disabled path: Enabled is a single comparison and no record is built.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (h nopHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h nopHandler) WithGroup(string) slog.Handler           { return h }
