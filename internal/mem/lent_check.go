//go:build lentcheck

package mem

// lentChecking builds in the invariant lent-chunk-stable (Connector.sums).
// Normal builds leave it out: hashing every chunk costs as much as the copy
// lending saves.
const lentChecking = true
