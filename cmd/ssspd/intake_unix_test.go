//go:build unix

package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestPollableIntakeOnPipe builds the serve intake's reader on a pipe
// created in blocking mode, as a shell or a parent process hands one to
// ssspd: the result must be backed by the netpoller (deadlines work, so
// an idle read parks instead of holding a thread in read(2)), still
// deliver lines and EOF, and go back to blocking mode on restore.
func TestPollableIntakeOnPipe(t *testing.T) {
	var p [2]int
	if err := syscall.Pipe(p[:]); err != nil {
		t.Fatal(err)
	}
	f, restore, ok := pollable(p[0], "pipe")
	if !ok {
		syscall.Close(p[0])
		syscall.Close(p[1])
		t.Fatal("a pipe was not made pollable")
	}
	defer f.Close()
	if err := f.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatalf("SetReadDeadline on the intake: %v", err)
	}
	buf := make([]byte, 8)
	if _, err := f.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("idle read returned %v, want a deadline error", err)
	}
	if err := f.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := syscall.Write(p[1], []byte("7\nstats\n")); err != nil {
		t.Fatal(err)
	}
	syscall.Close(p[1])
	got, err := io.ReadAll(f)
	if err != nil || string(got) != "7\nstats\n" {
		t.Fatalf("read %q, %v; want the lines, then EOF", got, err)
	}
	restore()
	flags, err := fcntlFlags(p[0])
	if err != nil {
		t.Fatal(err)
	}
	if flags&syscall.O_NONBLOCK != 0 {
		t.Error("restore left the pipe non-blocking")
	}
}

// TestPollableSkipsRegularFiles: a regular file on stdin is read as it
// is (the netpoller cannot back it).
func TestPollableSkipsRegularFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "requests")
	if err := os.WriteFile(path, []byte("1\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	fd, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fd)
	if _, _, ok := pollable(fd, "requests"); ok {
		t.Error("a regular file was switched to non-blocking mode")
	}
}

func fcntlFlags(fd int) (int, error) {
	r, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), syscall.F_GETFL, 0)
	if errno != 0 {
		return 0, errno
	}
	return int(r), nil
}
