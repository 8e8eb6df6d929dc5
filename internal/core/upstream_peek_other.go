//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package core

import "net"

// stillOpen cannot look at an idle connection's socket on this platform, so
// a request that may not be replayed always gets a fresh connection.
func stillOpen(net.Conn) bool { return false }
