package obs

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"lips/internal/trace"
)

// Flag groups a command adds to the logging flags every command takes.
const (
	FlagProfiles    = 1 << iota // -cpuprofile, -memprofile
	FlagListen                  // -listen
	FlagTrace                   // -trace
	FlagTraceFormat             // -trace-format, -sample-interval
)

// CLI is the flag block the commands share and the run plumbing behind
// it: NewCLI declares the flags, Start parses the command line and
// brings up what they ask for, Stop tears it down. Exit codes agree
// across the binaries by construction: 2 for a rejected flag (Start,
// Usagef), 1 for a run that failed (ExitOn).
type CLI struct {
	Logger   *slog.Logger // what -log-level/-log-format select
	Registry *Registry    // live metrics behind -listen; nil without it
	Trace    trace.Sink   // the -trace file; nil without it
	// SampleInterval is -sample-interval: simulated seconds between
	// time-series samples of a traced or scraped run.
	SampleInterval float64

	name                   string
	log                    LogOptions
	cpuProfile, memProfile string
	listen                 string
	tracePath, traceFormat string
	profiles               *Profiles
	server                 *Server
}

// NewCLI declares -log-level and -log-format plus the given flag groups
// on the default flag set. name prefixes the command's error messages.
func NewCLI(name string, groups int) *CLI {
	c := &CLI{name: name}
	c.register(flag.CommandLine, groups)
	return c
}

func (c *CLI) register(fs *flag.FlagSet, groups int) {
	c.log.Register(fs)
	if groups&FlagProfiles != 0 {
		fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
		fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file at exit")
	}
	if groups&FlagListen != 0 {
		fs.StringVar(&c.listen, "listen", "", "serve /metrics, /progress, /healthz and /debug/pprof on this address (e.g. :8080)")
	}
	if groups&FlagTrace != 0 {
		fs.StringVar(&c.tracePath, "trace", "", "write a structured trace of the run to this file")
	}
	if groups&FlagTraceFormat != 0 {
		fs.Func("trace-format", "trace format: jsonl (the default) or chrome (Perfetto)", func(v string) error {
			c.traceFormat = v
			return trace.CheckFormat(v)
		})
		fs.Float64Var(&c.SampleInterval, "sample-interval", 60, "simulated seconds between time-series samples (0 disables)")
	}
}

// Start parses the command line, builds the logger, starts the
// profiles, creates the trace file and binds the -listen address,
// printing the URL it serves. A bad flag value exits 2 as flag.Parse
// does; a file or address that cannot be opened exits 1.
func (c *CLI) Start() {
	flag.Parse()
	var err error
	if c.Logger, err = c.log.Logger(os.Stderr); err != nil {
		c.Usagef("%v", err)
	}
	c.ExitOn(c.open())
}

func (c *CLI) open() (err error) {
	if c.profiles, err = StartProfiles(c.cpuProfile, c.memProfile); err != nil {
		return err
	}
	if c.tracePath != "" {
		if c.Trace, err = trace.NewSink(c.tracePath, c.traceFormat); err != nil {
			return err
		}
	}
	if c.listen != "" {
		c.Registry = NewRegistry()
		if c.server, err = Serve(c.listen, c.Registry); err != nil {
			return err
		}
		fmt.Printf("metrics: serving %s/metrics\n", c.server.URL())
	}
	return nil
}

// CloseTrace flushes and closes the trace file and prints how many
// events it holds. Stop does the same; a command calls CloseTrace first
// when the line belongs earlier in its report. Like Stop it returns
// err, or its own failure when err is nil.
func (c *CLI) CloseTrace(err error) error {
	if c.Trace == nil {
		return err
	}
	if cerr := c.Trace.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: %w", cerr)
	}
	fmt.Printf("trace: %d events written to %s\n", c.Trace.Events(), c.tracePath)
	c.Trace = nil
	return err
}

// Stop ends what Start began — trace file, listener, profiles — and
// returns err, or the first thing that failed to close when err is nil.
func (c *CLI) Stop(err error) error {
	err = c.CloseTrace(err)
	if c.server != nil {
		if serr := c.server.Close(); serr != nil && err == nil {
			err = serr
		}
	}
	if c.profiles != nil {
		if perr := c.profiles.Stop(); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

// Usagef reports a flag value the command rejects and exits 2.
func (c *CLI) Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.name+": "+format+"\n", args...)
	os.Exit(2)
}

// ExitOn prints a non-nil err and exits 1: the run failed.
func (c *CLI) ExitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
		os.Exit(1)
	}
}
