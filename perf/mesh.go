//go:build linux

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Process hygiene. A leaked mesh poisons every later measurement on the
// box, so two things hold together: each mesh is one process group that
// killChildren — called on every exit path, timeout and signal — kills;
// and rank 0 reads its requests from a pipe only this process holds, so
// a mesh that outlives a SIGKILLed harness sees end of input and shuts
// itself down.

var (
	groupsMu sync.Mutex
	groups   = map[int]bool{} // process-group ids of live children
)

func track(pgid int) {
	groupsMu.Lock()
	groups[pgid] = true
	groupsMu.Unlock()
}

func untrack(pgid int) {
	groupsMu.Lock()
	delete(groups, pgid)
	groupsMu.Unlock()
}

// killChildren kills every process group this process started.
func killChildren() {
	groupsMu.Lock()
	defer groupsMu.Unlock()
	for pgid := range groups {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // already gone is fine
	}
}

// freeAddrs picks n free loopback ports by binding :0.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// cpuSet is a sched_setaffinity mask.
type cpuSet [16]uint64

func (s *cpuSet) syscall(nr uintptr) error {
	if _, _, e := syscall.RawSyscall(nr, 0, unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s))); e != 0 {
		return e
	}
	return nil
}

// startBound starts a rank bound to one CPU — the rank'th of those this
// process may use, wrapping round — as an MPI launcher binds ranks to
// cores. Left to the guest scheduler, the ranks' threads are at times
// stacked on one core for minutes while the other idles: alternating
// runs on this box gave 265–297 queries/s unbound against 362–452 bound
// (small-burst). The child inherits the mask of the thread that forks it.
func startBound(cmd *exec.Cmd, rank int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var allowed, one cpuSet
	if err := allowed.syscall(syscall.SYS_SCHED_GETAFFINITY); err != nil {
		return err
	}
	var cpus []int
	for i := range allowed {
		for b := 0; b < 64; b++ {
			if allowed[i]&(1<<b) != 0 {
				cpus = append(cpus, 64*i+b)
			}
		}
	}
	cpu := cpus[rank%len(cpus)]
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.syscall(syscall.SYS_SCHED_SETAFFINITY); err != nil {
		return err
	}
	err := cmd.Start()
	return errors.Join(err, allowed.syscall(syscall.SYS_SCHED_SETAFFINITY))
}

// awaitListener returns once a socket listens on addr. It reads the
// kernel's socket table instead of connecting: a probe connection would
// be taken for a peer with a bad handshake and fail the mesh.
func awaitListener(addr string) error {
	_, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return err
	}
	// /proc/net/tcp: "sl local_address rem_address st ...", addresses in
	// hex, state 0A = LISTEN; 127.0.0.1 reads 0100007F.
	want := fmt.Sprintf(" 0100007F:%04X 00000000:0000 0A ", port)
	for deadline := time.Now().Add(replyTimeout); time.Now().Before(deadline); time.Sleep(200 * time.Microsecond) {
		table, err := os.ReadFile("/proc/net/tcp")
		if err != nil {
			return err
		}
		if bytes.Contains(table, []byte(want)) {
			return nil
		}
	}
	return fmt.Errorf("nothing listens on %s after %v", addr, replyTimeout)
}

// replyTimeout bounds every exchange with the mesh — a pass of a stream,
// a stats request, the shutdown; the longest legitimate one takes two
// seconds.
const replyTimeout = 60 * time.Second

// line is one reply line of rank 0 with the time it was read.
type line struct {
	text string
	at   time.Time
}

// mesh is a running two-process `ssspd -serve` machine. Requests go to
// rank 0's stdin, replies come from its stdout.
type mesh struct {
	cmds   []*exec.Cmd
	stderr []*bytes.Buffer
	stdin  io.WriteCloser
	lines  chan line // closed by the reader at EOF
	pgid   int
	// deadline fires replyTimeout after the last arm; one timer per pass
	// instead of one per reply keeps the generator off the ranks' cores.
	deadline <-chan time.Time
}

// startMesh spawns the ranks of a serve workload's machine the way a
// careful operator does: highest rank first, each lower rank once the
// ones it dials are listening. Started together, the ranks race — a dial
// that finds no listener yet waits out tcptransport's 50 ms retry — and
// set-up time comes out bimodal. It returns once every process exists;
// the first reply tells when the mesh is up.
func startMesh(ssspd string, w workload, seed uint64) (*mesh, error) {
	addrs, err := freeAddrs(numRanks)
	if err != nil {
		return nil, err
	}
	m := &mesh{cmds: make([]*exec.Cmd, numRanks), stderr: make([]*bytes.Buffer, numRanks)}
	var stdout io.ReadCloser // rank 0's
	for r := numRanks - 1; r >= 0; r-- {
		cmd := exec.Command(ssspd, "-serve", "-rank", strconv.Itoa(r), "-addrs", strings.Join(addrs, ","),
			"-family", "1", "-scale", strconv.Itoa(w.scale), "-seed", strconv.FormatUint(seed, 10),
			"-threads", "1", "-slots", strconv.Itoa(w.slots), "-dial-timeout", "5s")
		m.stderr[r] = &bytes.Buffer{}
		cmd.Stderr = m.stderr[r]
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: m.pgid}
		if r == 0 {
			if m.stdin, err = cmd.StdinPipe(); err == nil {
				stdout, err = cmd.StdoutPipe()
			}
		}
		if err == nil {
			err = startBound(cmd, r)
		}
		if err != nil {
			m.abort()
			return nil, fmt.Errorf("starting rank %d: %w", r, err)
		}
		m.cmds[r] = cmd
		if m.pgid == 0 {
			m.pgid = cmd.Process.Pid // the first rank started leads the group the others join
			track(m.pgid)
		}
		if r > 0 {
			if err := awaitListener(addrs[r]); err != nil {
				m.abort()
				return nil, fmt.Errorf("rank %d: %w\n%s", r, err, m.logs())
			}
		}
	}
	// Sized to the most replies that can be outstanding (a burst's acks, a
	// query per slot, a stats line), so the reader never waits for the
	// driver and a reply's timestamp is its arrival.
	m.lines = make(chan line, burstOps+w.slots+1)
	go func() {
		defer close(m.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			m.lines <- line{sc.Text(), time.Now()}
		}
	}()
	return m, nil
}

func (m *mesh) send(s string) error {
	_, err := io.WriteString(m.stdin, s)
	return err
}

// arm restarts the deadline of the exchange that follows.
func (m *mesh) arm() { m.deadline = time.After(replyTimeout) }

// recv returns rank 0's next reply line.
func (m *mesh) recv() (line, error) {
	select {
	case ln, ok := <-m.lines:
		if !ok {
			return line{}, fmt.Errorf("rank 0 closed its output\n%s", m.logs())
		}
		return ln, nil
	case <-m.deadline:
		return line{}, fmt.Errorf("rank 0 silent %v into an exchange\n%s", replyTimeout, m.logs())
	}
}

// logs is what the ranks wrote to standard error.
func (m *mesh) logs() string {
	var b strings.Builder
	for r, buf := range m.stderr {
		if buf.Len() > 0 {
			fmt.Fprintf(&b, "rank %d stderr:\n%s", r, buf.String())
		}
	}
	return b.String()
}

// stats asks rank 0 for its stats line and returns the version and shed
// counters. It is answered by the intake, ahead of any queued work.
func (m *mesh) stats() (version, shed int, err error) {
	m.arm()
	if err := m.send("stats\n"); err != nil {
		return 0, 0, err
	}
	ln, err := m.recv()
	if err != nil {
		return 0, 0, err
	}
	var policy string
	var queued int
	if _, err := fmt.Sscanf(ln.text, "stats version=%d policy=%s queued=%d shed=%d", &version, &policy, &queued, &shed); err != nil {
		return 0, 0, fmt.Errorf("bad stats line %q: %v", ln.text, err)
	}
	return version, shed, nil
}

// cpuMS is the user+system CPU time the rank processes have used so
// far, in ms, from their clock ticks (USER_HZ, 100 per second on Linux).
func (m *mesh) cpuMS() (float64, error) {
	var total int64
	for _, cmd := range m.cmds {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The command name (field 2) may hold spaces; fields after its
		// closing parenthesis are fixed: utime and stime are the 14th and
		// 15th of the line.
		rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat line %q", raw)
		}
		utime, err1 := strconv.ParseInt(f[11], 10, 64)
		stime, err2 := strconv.ParseInt(f[12], 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, err
		}
		total += utime + stime
	}
	return float64(total) * 1000 / ticksPerSecond, nil
}

const ticksPerSecond = 100

// close shuts the mesh down the way an operator would — end of input on
// rank 0 — and requires exit status 0 from every rank. It returns the
// summed peak RSS of the ranks in KiB and how many exited uncleanly.
func (m *mesh) close() (rssKB int64, unclean int, err error) {
	defer untrack(m.pgid)
	timer := time.AfterFunc(replyTimeout, m.kill)
	defer timer.Stop()
	if err := m.stdin.Close(); err != nil {
		m.abort()
		return 0, len(m.cmds), err
	}
	for range m.lines { // unread replies; the reader closes the channel at EOF
	}
	for r, cmd := range m.cmds {
		if werr := cmd.Wait(); werr != nil {
			unclean++
			err = errors.Join(err, fmt.Errorf("rank %d: %w", r, werr))
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rssKB += ru.Maxrss
		}
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, m.logs())
	}
	return rssKB, unclean, err
}

// kill ends the mesh's process group at once.
func (m *mesh) kill() {
	if m.pgid != 0 {
		_ = syscall.Kill(-m.pgid, syscall.SIGKILL) // already gone is fine
	}
}

// abort kills the mesh and reaps its processes.
func (m *mesh) abort() {
	m.kill()
	for _, cmd := range m.cmds {
		if cmd != nil {
			_ = cmd.Wait() // killed: the status says nothing
		}
	}
	untrack(m.pgid)
}

// answer is a parsed `answer` reply.
type answer struct {
	src     uint32
	reached int64
	sum     uint64
	engine  time.Duration // the server's own time for the query
}

func parseAnswer(s string) (answer, error) {
	var a answer
	var dur string
	if _, err := fmt.Sscanf(s, "answer src=%d reached=%d checksum=%x time=%s", &a.src, &a.reached, &a.sum, &dur); err != nil {
		return a, fmt.Errorf("bad answer line %q: %v", s, err)
	}
	d, err := time.ParseDuration(dur)
	if err != nil {
		return a, fmt.Errorf("bad answer line %q: %v", s, err)
	}
	a.engine = d
	return a, nil
}
