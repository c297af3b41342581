module stencilabft/bench

go 1.24

require stencilabft v0.0.0

replace stencilabft => ../
