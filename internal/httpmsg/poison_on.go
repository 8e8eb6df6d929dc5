//go:build nakika_poison

package httpmsg

// poison is set by the nakika_poison build tag (see poison.go).
const poison = true
