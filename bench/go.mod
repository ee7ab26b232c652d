module mrtext/bench

go 1.22

require mrtext v0.0.0

replace mrtext => ../
