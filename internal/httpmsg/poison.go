//go:build !nakika_poison

package httpmsg

// poison says Release overwrites what it gives back instead of zeroing it.
// The nakika_poison build tag sets it (poison_on.go), so tests run with it
// read garbage wherever something kept a request, or the Response its
// connection lent it, past its release.
const poison = false
