let k = M.samelib ()
