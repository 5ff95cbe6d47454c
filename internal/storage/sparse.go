package storage

// SparseBuffer is a chunked, lazily allocated byte store used as the backing
// medium of simulated devices. Unwritten regions read back as zeros, so a
// multi-gigabyte simulated device only consumes host memory proportional to
// the bytes actually written.
//
// SparseBuffer is not safe for concurrent use; devices serialize access
// under their own locks.

const sparseChunkSize = 128 << 10 // 128 KiB, matches the SSD block size

// SparseBuffer holds size logical bytes in sparse chunks. Chunks released
// by Zero are kept on a free list and reused by later writes, so a device
// that erases and rewrites blocks in steady state stops allocating.
type SparseBuffer struct {
	size   int64
	chunks map[int64][]byte // chunk index -> chunk contents
	free   [][]byte         // released chunks, contents stale until reused
}

// NewSparseBuffer returns an all-zero buffer of the given size in bytes.
func NewSparseBuffer(size int64) *SparseBuffer {
	if size < 0 {
		panic("storage: negative sparse buffer size")
	}
	return &SparseBuffer{size: size, chunks: make(map[int64][]byte)}
}

// Size returns the logical size in bytes.
func (b *SparseBuffer) Size() int64 { return b.size }

// AllocatedBytes reports host memory consumed by written chunks. Chunks
// parked on the free list are not counted: they hold no logical data.
func (b *SparseBuffer) AllocatedBytes() int64 {
	return int64(len(b.chunks)) * sparseChunkSize
}

// ReadAt copies len(p) bytes at off into p. The range must be in bounds.
func (b *SparseBuffer) ReadAt(p []byte, off int64) {
	if err := CheckRange("sparse", b.size, off, len(p)); err != nil {
		panic(err)
	}
	for len(p) > 0 {
		ci := off / sparseChunkSize
		co := off % sparseChunkSize
		n := sparseChunkSize - co
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		if chunk, ok := b.chunks[ci]; ok {
			copy(p[:n], chunk[co:co+n])
		} else {
			for i := int64(0); i < n; i++ {
				p[i] = 0
			}
		}
		p = p[n:]
		off += n
	}
}

// WriteAt stores p at off. The range must be in bounds.
func (b *SparseBuffer) WriteAt(p []byte, off int64) {
	if err := CheckRange("sparse", b.size, off, len(p)); err != nil {
		panic(err)
	}
	for len(p) > 0 {
		ci := off / sparseChunkSize
		co := off % sparseChunkSize
		n := sparseChunkSize - co
		if int64(len(p)) < n {
			n = int64(len(p))
		}
		chunk, ok := b.chunks[ci]
		if !ok {
			chunk = b.newChunk()
			b.chunks[ci] = chunk
		}
		copy(chunk[co:co+n], p[:n])
		p = p[n:]
		off += n
	}
}

// newChunk returns an all-zero chunk, recycling a released one if any.
func (b *SparseBuffer) newChunk() []byte {
	if n := len(b.free); n > 0 {
		chunk := b.free[n-1]
		b.free = b.free[:n-1]
		clear(chunk)
		return chunk
	}
	return make([]byte, sparseChunkSize)
}

// Zero clears n bytes at off, releasing whole chunks to the free list when
// the cleared range covers them fully.
func (b *SparseBuffer) Zero(off, n int64) {
	if err := CheckRange("sparse", b.size, off, int(n)); err != nil {
		panic(err)
	}
	for n > 0 {
		ci := off / sparseChunkSize
		co := off % sparseChunkSize
		span := sparseChunkSize - co
		if n < span {
			span = n
		}
		if co == 0 && span == sparseChunkSize {
			if chunk, ok := b.chunks[ci]; ok {
				delete(b.chunks, ci)
				b.free = append(b.free, chunk)
			}
		} else if chunk, ok := b.chunks[ci]; ok {
			for i := co; i < co+span; i++ {
				chunk[i] = 0
			}
		}
		off += span
		n -= span
	}
}
