package main

import (
	"fmt"
	"syscall"
)

// fsType names the file system holding dir, so a run records whether
// its stores sat on a tmpfs or on a device.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext2/3/4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("fs magic %#x", st.Type)
}

// settle flushes the file systems' dirty data and journals, so an op
// does not share the device with write-back or discards left over from
// the work before it.
func settle() { syscall.Sync() }
