let x = Mac_a.M.pathed () + Mac_a.N.live_top
