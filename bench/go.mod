// The benchmark is its own module so that it has its own build file;
// the module path sits under goomp/ so it may import goomp/internal/*.
module goomp/bench

go 1.22

require goomp v0.0.0

replace goomp => ../
