package torture

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Result is how a subprocess ended, with its captured output.
type Result struct {
	Stdout, Stderr string
	Code           int  // exit code; -1 when ended by a signal
	Killed         bool // ended by SIGKILL
}

// proc is one running subprocess.
type proc struct {
	cmd            *exec.Cmd
	stdout, stderr output
	done           chan struct{} // closed once the process is reaped
	res            Result        // exit status, valid after done
	err            error         // a wait failure other than an exit status
}

// output is a goroutine-safe capture buffer that signals every write.
type output struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{}
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	n, err := o.buf.Write(p)
	o.mu.Unlock()
	select {
	case o.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// start launches bin with args, exporting fault as GPSA_FAULT ("" arms
// nothing) and capturing stdout and stderr.
func start(bin string, args []string, fault string) (*proc, error) {
	p := &proc{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	p.stderr.wrote = make(chan struct{}, 1)
	p.cmd.Env = append(os.Environ(), "GPSA_FAULT="+fault)
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.res, p.err = exitStatus(p.cmd.Wait())
		close(p.done)
	}()
	return p, nil
}

// exitStatus decodes cmd.Wait's error into an exit code and whether
// SIGKILL ended the process; only a failure to wait is an error.
func exitStatus(err error) (Result, error) {
	if err == nil {
		return Result{}, nil
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return Result{Code: -1}, err
	}
	res := Result{Code: ee.ExitCode()}
	if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
		res.Killed = true
	}
	return res, nil
}

// Run runs bin to completion, launched as start does. killAfter, when
// positive, sends SIGKILL from outside after that wall-clock delay — the
// jitter kills that land between fault sites; interruptAfter likewise
// sends SIGINT (graceful stop).
func Run(bin string, args []string, fault string, killAfter, interruptAfter time.Duration) (Result, error) {
	p, err := start(bin, args, fault)
	if err != nil {
		return Result{}, err
	}
	if killAfter > 0 {
		defer time.AfterFunc(killAfter, p.Kill).Stop()
	}
	if interruptAfter > 0 {
		defer time.AfterFunc(interruptAfter, func() { p.cmd.Process.Signal(syscall.SIGINT) }).Stop() //nolint:errcheck
	}
	return p.Wait()
}

// Wait blocks until the process ends and returns how it ended.
func (p *proc) Wait() (Result, error) {
	<-p.done
	res := p.res
	res.Stdout, res.Stderr = p.stdout.String(), p.stderr.String()
	return res, p.err
}

// Kill SIGKILLs the process and reaps it.
func (p *proc) Kill() {
	p.cmd.Process.Kill() //nolint:errcheck — it may already have exited
	<-p.done
}

// Terminate sends SIGTERM (gpsa-serve's drain signal) and returns the
// exit code once the process ends.
func (p *proc) Terminate() (int, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	res, err := p.Wait()
	return res.Code, err
}

// Stderr returns the stderr captured so far.
func (p *proc) Stderr() string { return p.stderr.String() }

// awaitLine waits until a complete stderr line contains marker and
// returns the rest of that line after it. It gives up when the process
// exits or timeout passes.
func (p *proc) awaitLine(marker string, timeout time.Duration) (string, bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	exited := false
	for {
		text := p.Stderr()
		if i := strings.Index(text, marker); i >= 0 {
			rest := text[i+len(marker):]
			if j := strings.IndexByte(rest, '\n'); j >= 0 {
				return rest[:j], true
			}
		}
		if exited {
			return "", false
		}
		select {
		case <-p.stderr.wrote:
		case <-p.done:
			exited = true // reaped: stderr is complete, look once more
		case <-timer.C:
			return "", false
		}
	}
}
