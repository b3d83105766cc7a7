package stripe

// NumShards and StripeOf expose the stripe choice to the key-type tests,
// which live in stripe_test so that they can import the memo packages.
const NumShards = numShards

func StripeOf[K Key](k K) int { return int(k.Mix() & (numShards - 1)) }
