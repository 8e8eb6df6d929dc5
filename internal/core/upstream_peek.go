//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package core

import (
	"crypto/tls"
	"net"
	"syscall"
)

// stillOpen reports whether an idle connection is open and silent: a
// non-blocking peek at its socket finds neither bytes nor the end of the
// stream. (A read with a deadline already past would not do: Go reports the
// timeout without reading.)
func stillOpen(conn net.Conn) bool {
	if tc, ok := conn.(*tls.Conn); ok {
		conn = tc.NetConn()
	}
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	err = raw.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, errno := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		open = errno == syscall.EAGAIN
		return true
	})
	return err == nil && open
}
