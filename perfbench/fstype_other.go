//go:build !linux

package main

// fsType is only resolved on Linux.
func fsType(string) string { return "unknown" }

// settle flushes dirty file data only on Linux.
func settle() {}
