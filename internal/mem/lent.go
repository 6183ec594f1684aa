//go:build !lentcheck

package mem

// lentChecking is off: see lent_check.go.
const lentChecking = false
