// Package hashes holds DeWrite's dedup fingerprint: the light-weight CRC-32
// the paper's detection front end computes (15 ns in hardware, Table I).
// The fingerprint is persisted in snapshots and routes dewrite-serve keys to
// shards, so it is pinned to the IEEE polynomial.
package hashes

import "hash/crc32"

// CRC32 returns the IEEE CRC-32 of data, computed by the standard library
// (CLMUL-accelerated on amd64). The stdlib dispatches through a function
// variable, so data escapes: pass a buffer the caller owns for longer than
// the call, not a fresh stack array, or each call allocates.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }
