module eend/bench

go 1.24

require eend v0.0.0

replace eend => ../
