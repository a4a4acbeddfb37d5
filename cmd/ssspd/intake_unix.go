//go:build unix

package main

import (
	"os"
	"syscall"
)

// pollable switches fd to non-blocking mode and wraps it in a file the
// netpoller backs, if fd is a pipe or a socket; ok reports whether it
// did, and restore switches fd back to blocking mode.
func pollable(fd int, name string) (f *os.File, restore func(), ok bool) {
	var st syscall.Stat_t
	if err := syscall.Fstat(fd, &st); err != nil {
		return nil, nil, false
	}
	if mode := st.Mode & syscall.S_IFMT; mode != syscall.S_IFIFO && mode != syscall.S_IFSOCK {
		return nil, nil, false
	}
	if err := syscall.SetNonblock(fd, true); err != nil {
		return nil, nil, false
	}
	restore = func() {
		// Best effort on the way out: the process is done reading, and
		// only a reader that shares the pipe after it sees the mode.
		_ = syscall.SetNonblock(fd, false)
	}
	return os.NewFile(uintptr(fd), name), restore, true
}
