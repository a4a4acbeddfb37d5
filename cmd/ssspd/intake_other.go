//go:build !unix

package main

import "os"

// pollable is unix-only; elsewhere the intake reads stdin as it is.
func pollable(fd int, name string) (f *os.File, restore func(), ok bool) {
	return nil, nil, false
}
