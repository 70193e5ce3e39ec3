package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one tempaggd process serving the benchmark's catalog directory
// with its shipped defaults.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, readable after exited closes
}

// startDaemon launches tempaggd over dir on a free loopback port and waits
// for it to report its address.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-db", dir, "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed
	// outright and never runs its clean-up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tempaggd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			// "serving N relations on ADDR"
			if f := strings.Fields(sc.Text()); len(f) > 0 && strings.HasPrefix(sc.Text(), "serving ") {
				addr <- f[len(f)-1]
				break
			}
		}
		// Drain the rest so the daemon never blocks on a full pipe, then
		// reap it.
		_, _ = io.Copy(io.Discard, out)
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("tempaggd exited before listening: %v", d.err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("tempaggd did not report its address within 60s")
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it if it
// has not exited after ten seconds. It is safe to call more than once.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuTime reads the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	var ticks int64
	for _, x := range f[11:13] {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS reads the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one closed-loop client connection speaking the line protocol:
// one request line out, one JSON reply line back. Replies are read whole,
// however long.
type conn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	buf []byte
}

// opTimeout bounds one request, so a wedged daemon fails the run instead
// of hanging it.
const opTimeout = 60 * time.Second

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 1<<20), w: bufio.NewWriter(c)}, nil
}

// roundTrip sends one line and returns the reply line (valid until the
// next call) and the time from the write to holding the whole reply.
func (c *conn) roundTrip(line string) ([]byte, time.Duration, error) {
	if err := c.c.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	if err := c.w.Flush(); err != nil {
		return nil, 0, err
	}
	c.buf = c.buf[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		c.buf = append(c.buf, frag...)
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return nil, 0, fmt.Errorf("read reply: %w", err)
		}
	}
	return c.buf, time.Since(start), nil
}

func (c *conn) close() {
	_, _ = c.c.Write([]byte("quit\n"))
	_ = c.c.Close()
}

// tracedOp is one SELECT sent alone, with its round trip.
type tracedOp struct {
	q   *querySpec
	rtt time.Duration
}

// serial sends qs over one connection, one at a time, keeping each reply
// with keep.
func serial(d *daemon, qs []*querySpec, keep func(i int, line []byte)) ([]tracedOp, error) {
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	ops := make([]tracedOp, len(qs))
	for i, q := range qs {
		line, rtt, err := c.roundTrip(q.sql())
		if err != nil {
			return nil, err
		}
		keep(i, line)
		ops[i] = tracedOp{q: q, rtt: rtt}
	}
	return ops, nil
}
