package grid

import "stencilabft/internal/num"

// Buffer is the double buffer a 2-D stencil sweep ping-pongs between. Read
// holds iteration t, Write receives iteration t+1; Swap exchanges them after
// each sweep. Keeping the t-buffer intact is what lets the online ABFT
// protector compute the second (row) checksum pair lazily, only when the
// first (column) checksum has already flagged an error.
type Buffer[T num.Float] struct {
	Read, Write *Grid[T]
}

// NewBuffer allocates a double buffer of the given shape, both halves
// zeroed.
func NewBuffer[T num.Float](nx, ny int) *Buffer[T] {
	return &Buffer[T]{Read: New[T](nx, ny), Write: New[T](nx, ny)}
}

// BufferFrom allocates a double buffer whose read half is a copy of init.
func BufferFrom[T num.Float](init *Grid[T]) *Buffer[T] {
	return &Buffer[T]{Read: init.Clone(), Write: New[T](init.Nx(), init.Ny())}
}

// Swap exchanges the read and write halves.
func (b *Buffer[T]) Swap() { b.Read, b.Write = b.Write, b.Read }

// Stack views b as the double buffer of its halves' one-layer stacks
// (Stack), sharing their storage. The views are b's halves as they stand:
// whoever holds them swaps them alongside b.
func (b *Buffer[T]) Stack() *Buffer3D[T] {
	return &Buffer3D[T]{Read: Stack(b.Read), Write: Stack(b.Write)}
}

// Buffer3D is the 3-D double buffer, with layer views kept in sync.
type Buffer3D[T num.Float] struct {
	Read, Write *Grid3D[T]
}

// NewBuffer3D allocates a 3-D double buffer of the given shape.
func NewBuffer3D[T num.Float](nx, ny, nz int) *Buffer3D[T] {
	return &Buffer3D[T]{Read: New3D[T](nx, ny, nz), Write: New3D[T](nx, ny, nz)}
}

// Buffer3DFrom allocates a 3-D double buffer whose read half copies init
// (Clone: written once, never zeroed first) and whose write half is zeroed.
func Buffer3DFrom[T num.Float](init *Grid3D[T]) *Buffer3D[T] {
	return &Buffer3D[T]{Read: init.Clone(), Write: New3D[T](init.Nx(), init.Ny(), init.Nz())}
}

// Swap exchanges the read and write halves.
func (b *Buffer3D[T]) Swap() { b.Read, b.Write = b.Write, b.Read }
