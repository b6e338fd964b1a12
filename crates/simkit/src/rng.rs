//! Deterministic random number generation and the distributions the trace generators need.
//!
//! Every stochastic component in the workspace (weather, arrivals, request sizes, process
//! variation) draws from a [`SimRng`] seeded from the experiment configuration, so every
//! figure regenerated by the bench harness is exactly reproducible. The generator is a
//! ChaCha8 stream, which is small, fast and has well-defined cross-platform behaviour.
//!
//! `rand` 0.8 intentionally ships only uniform sampling in its core crate; the handful of
//! shaped distributions we need (normal, log-normal, exponential, bounded Pareto) are
//! implemented here directly so the workspace does not grow extra dependencies.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A deterministic random stream.
///
/// # Examples
/// ```
/// use simkit::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates a stream from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        Self {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child stream from this stream and a domain label.
    ///
    /// Deriving (rather than reusing) streams keeps, say, the weather trace identical across
    /// experiments even when the arrival generator consumes a different number of samples.
    #[must_use]
    pub fn derive(&self, label: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in label.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        let base = self.inner.get_seed();
        let mut seed_words = [0u8; 32];
        seed_words.copy_from_slice(&base);
        for (i, b) in hash.to_le_bytes().iter().enumerate() {
            seed_words[i] ^= *b;
        }
        Self {
            inner: ChaCha8Rng::from_seed(seed_words),
        }
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range must be non-empty ({lo} >= {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform integer sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(
            lo < hi,
            "uniform_usize range must be non-empty ({lo} >= {hi})"
        );
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli sample with probability `p` of returning `true`.
    ///
    /// Probabilities outside `[0, 1]` are clamped.
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Standard normal sample (Box–Muller transform).
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f64 = 1.0 - self.inner.gen::<f64>();
        let u2: f64 = self.inner.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    /// Panics if `std_dev` is negative.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Log-normal sample parameterized by the mean and standard deviation of the underlying
    /// normal distribution, which the ziggurat draws (one word and no `ln`, `sqrt` or
    /// `cos` on its fast path; [`Self::normal`] stays Box–Muller).
    ///
    /// # Panics
    /// Panics if `sigma` is negative.
    #[inline]
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "standard deviation must be non-negative");
        (mu + sigma * self.ziggurat_normal()).exp()
    }

    /// Standard normal sample from the 256-layer ziggurat ([`ZIG_X`], [`ZIG_F`]).
    ///
    /// One word per draw: its low 8 bits pick a layer, its top 52 bits a uniform `u` in
    /// `[−1, 1)`, and `x = u · ZIG_X[layer]`. Inside the next layer's width `x` is under
    /// the density outright (~99 % of draws); otherwise the base strip draws from the
    /// tail beyond `R` (Marsaglia's exponential method) and any other layer tests its
    /// wedge with one more uniform against `exp(−x²/2)`, drawing afresh on rejection.
    #[inline]
    fn ziggurat_normal(&mut self) -> f64 {
        loop {
            let bits = self.inner.next_u64();
            let layer = (bits & 0xff) as usize;
            // The top 52 bits as the mantissa of a float in [2, 4), shifted to [−1, 1).
            let u = f64::from_bits(0x4000_0000_0000_0000 | bits >> 12) - 3.0;
            let x = u * ZIG_X[layer];
            if x.abs() < ZIG_X[layer + 1] {
                return x;
            }
            if layer == 0 {
                return self.ziggurat_tail(u < 0.0);
            }
            let height =
                ZIG_F[layer + 1] + (ZIG_F[layer] - ZIG_F[layer + 1]) * self.inner.gen::<f64>();
            if height < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// A normal sample beyond `±R`, the ziggurat's tail.
    #[cold]
    fn ziggurat_tail(&mut self, negative: bool) -> f64 {
        loop {
            // Uniforms in (0, 1], so neither logarithm sees 0.
            let x = -(1.0 - self.inner.gen::<f64>()).ln() / ZIG_R;
            let y = -(1.0 - self.inner.gen::<f64>()).ln();
            if 2.0 * y >= x * x {
                return if negative { -(ZIG_R + x) } else { ZIG_R + x };
            }
        }
    }

    /// Exponential sample with the given rate `lambda` (mean `1/lambda`).
    ///
    /// # Panics
    /// Panics if `lambda` is not strictly positive.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential rate must be positive");
        let u: f64 = 1.0 - self.inner.gen::<f64>();
        -u.ln() / lambda
    }

    /// Bounded Pareto sample on `[lo, hi]` with tail index `alpha`.
    ///
    /// Heavy-tailed draws model the row-power imbalance of Fig. 10 and the endpoint-size
    /// distribution of Fig. 12b (a few very large endpoints, many small ones).
    ///
    /// # Panics
    /// Panics if `lo <= 0`, `lo >= hi` or `alpha <= 0`.
    pub fn bounded_pareto(&mut self, lo: f64, hi: f64, alpha: f64) -> f64 {
        assert!(
            lo > 0.0 && lo < hi && alpha > 0.0,
            "invalid bounded Pareto parameters"
        );
        let u: f64 = self.inner.gen();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto distribution.
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha)
    }

    /// Poisson sample with the given mean (Knuth's algorithm for small means, normal
    /// approximation above 30 to stay O(1)).
    ///
    /// # Panics
    /// Panics if `mean` is negative.
    #[inline]
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            let sample = self.normal(mean, mean.sqrt());
            return sample.max(0.0).round() as u64;
        }
        let limit = (-mean).exp();
        let mut product: f64 = self.inner.gen();
        let mut count = 0u64;
        while product > limit {
            product *= self.inner.gen::<f64>();
            count += 1;
        }
        count
    }

    /// Selects an index in `[0, weights.len())` proportionally to the weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative value, or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        assert!(
            !weights.is_empty(),
            "weighted_index needs at least one weight"
        );
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        let mut target = self.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.uniform_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Returns a raw `u64` from the stream (escape hatch for callers that need raw bits).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

/// The normal ziggurat's rightmost layer edge `R`, where its tail starts (Marsaglia &
/// Tsang's method with 256 layers, as in Doornik's ZIGNOR). Every layer has the area
/// `V = R·f(R) + ∫_R^∞ f = 0.004928673233974655…`, with `f(x) = exp(−x²/2)` unnormalised.
const ZIG_R: f64 = 3.654152885361009;

/// Layer edges of the normal ziggurat: `ZIG_X[0] = V / f(R)` is the base strip's width
/// (its rectangle plus the tail has area `V`), `ZIG_X[1] = R`, then
/// `ZIG_X[i + 1] = √(−2 ln(V / ZIG_X[i] + f(ZIG_X[i])))` and `ZIG_X[256] = 0`; computed at
/// 60 significant digits and rounded once to `f64`. Layer `i` is the rectangle of width
/// `ZIG_X[i]` between heights `ZIG_F[i]` and `ZIG_F[i + 1]`.
#[rustfmt::skip]
const ZIG_X: [f64; 257] = [
    3.910757959524916, 3.654152885361009, 3.449278298561431, 3.3202447338398255,
    3.2245750520478014, 3.147889289518001, 3.0835261320021434, 3.0278377917695933,
    2.978603279881843, 2.9343668672088876, 2.894121053613412, 2.8571387308732246,
    2.822877396826443, 2.7909211740019275, 2.760944005279986, 2.7326853590440114,
    2.705933656123062, 2.680514643285745, 2.6562830375767432, 2.6331163936315827,
    2.6109105184888235, 2.5895759867082866, 2.569035452681844, 2.5492215503247833,
    2.530075232159854, 2.5115444416266945, 2.4935830412710467, 2.476149939670523,
    2.459208374334705, 2.442725318200364, 2.4266709849371466, 2.4110184139011195,
    2.3957431197819274, 2.3808227951720857, 2.366237056717291, 2.3519672273791445,
    2.337996148796529, 2.3243080188711325, 2.310888250601372, 2.2977233489028634,
    2.284800802724492, 2.2721089902283818, 2.2596370951737876, 2.247375032947389,
    2.235313384929921, 2.2234433400925107, 2.211756642884161, 2.2002455466112765,
    2.1889027716263607, 2.177721467740293, 2.1666951803543086, 2.1558178198767375,
    2.145083634047889, 2.134487182846017, 2.1240233156895236, 2.113687150686653,
    2.1034740557148774, 2.093379631138792, 2.0833996939983046, 2.073530263518743,
    2.0637675478117323, 2.0541079316506523, 2.0445479652175313, 2.035084353729619,
    2.025713947863854, 2.016433734906204, 2.0072408305605287, 1.9981324713584196,
    1.989106007617438, 1.9801588969004766, 1.9712886979336592, 1.962493064944363,
    1.9537697423846467, 1.9451165600086784, 1.9365314282756947, 1.9280123340526658,
    1.9195573365931882, 1.9111645637712533, 1.9028322085504292, 1.8945585256707047,
    1.8863418285367828, 1.8781804862929958, 1.8700729210712668, 1.8620176053996742,
    1.8540130597602018, 1.8460578502851854, 1.8381505865828067, 1.830289919682757,
    1.8224745400938858, 1.8147031759662826, 1.8069745913508208, 1.7992875845497203,
    1.7916409865521625, 1.7840336595494415, 1.7764644955245228, 1.7689324149112686,
    1.7614363653189102, 1.7539753203176716, 1.7465482782817223, 1.7391542612859117,
    1.7317923140529632, 1.724461502948045, 1.717160915017823, 1.7098896570713018,
    1.7026468547999232, 1.6954316519345616, 1.6882432094371953, 1.681080704725174,
    1.673943330926125, 1.6668302961616654, 1.6597408228581825, 1.652674147083056,
    1.6456295179047824, 1.6386061967755476, 1.6316034569348736, 1.6246205828330347,
    1.6176568695730156, 1.6107116223698301, 1.6037841560260946, 1.5968737944227882,
    1.5899798700241907, 1.5831017233960292, 1.5762387027359064, 1.5693901634151237,
    1.562555467531045, 1.5557339834691764, 1.5489250854741734, 1.5421281532290019,
    1.535342571441514, 1.5285677294377125, 1.521803020760998, 1.5150478427767147,
    1.5083015962813116, 1.5015636851154637, 1.4948335157804935, 1.4881104970574475,
    1.4813940396281873, 1.4746835556978555, 1.4679784586180795, 1.4612781625102755,
    1.4545820818884103, 1.447889631280576, 1.441200224848724, 1.4345132760058923,
    1.427828197030256, 1.421144398675309, 1.4144612897754711, 1.407778276846399,
    1.401094763679251, 1.394410150928141, 1.3877238356899761, 1.3810352110758555,
    1.3743436657731662, 1.367648583597476, 1.360949343033283, 1.354245316762635,
    1.3475358711805872, 1.340820365896404, 1.33409815321936, 1.3273685776279258,
    1.3206309752210563, 1.3138846731502205, 1.3071289890307312, 1.3003632303308372,
    1.2935866937369478, 1.2867986644932436, 1.279998415713818, 1.2731852076653563,
    1.2663582870182295, 1.2595168860637143, 1.2526602218948972, 1.2457874955486272,
    1.2388978911056874, 1.2319905747461362, 1.2250646937565308, 1.2181193754854815,
    1.211153726243699, 1.2041668301443815, 1.1971577478794415, 1.190125515426692,
    1.1830691426826867, 1.175987612015452, 1.168879876730833, 1.1617448594456115,
    1.1545814503599277, 1.147388505420849, 1.1401648443681514, 1.1329092486525338,
    1.1256204592155334, 1.118297174119345, 1.1109380460135758, 1.1035416794246398,
    1.0961066278520215, 1.0886313906539797, 1.0811144097034038, 1.0735540657924363,
    1.0659486747621225, 1.0582964833306752, 1.05059566459093, 1.042844313144149,
    1.035040439833441, 1.0271819660356458, 1.0192667174654841, 1.0112924174399958,
    1.003256679544673, 0.995156999635091, 0.9869907470990624, 0.9787551552942246,
    0.9704473110642244, 0.9620641432230406, 0.953602409881086, 0.9450586844681654,
    0.9364293402865751, 0.9277105334020002, 0.9188981836495906, 0.9099879534967185,
    0.9009752244612218, 0.8918550707329416, 0.8826222295851656, 0.8732710680888608,
    0.8637955455533088, 0.8541891710081638, 0.8444449549091539, 0.8345553540863822,
    0.8245122087522921, 0.8143066701352152, 0.8039291169899713, 0.7933690588406233,
    0.7826150233072331, 0.7716544242245681, 0.7604734064301081, 0.7490566620178153,
    0.7373872114342956, 0.7254461409099996, 0.7132122851909759, 0.7006618411068151,
    0.6877678927957885, 0.6744998228372938, 0.6608225742444197, 0.6466957148949938,
    0.6320722363860611, 0.6168969900077514, 0.6011046177559927, 0.5846167661063794,
    0.5673382570538188, 0.5491517023271651, 0.5299097206615582, 0.5094233296020918,
    0.487443966139236, 0.46363433679088223, 0.4375184022078717, 0.40838913461199117,
    0.37512133287838056, 0.33573751921442524, 0.2861745917920725, 0.2152418959848817, 0.0,
];
/// `ZIG_F[i] = f(ZIG_X[i])`, the density height at each layer edge (`ZIG_F[256] = 1`).
#[rustfmt::skip]
const ZIG_F: [f64; 257] = [
    0.00047746776460938755, 0.0012602859304985975, 0.002609072746102163,
    0.0040379725933630305, 0.005522403299250998, 0.007050875471373227, 0.008616582769398732,
    0.010214971439701471, 0.01184275785790789, 0.01349745060173988, 0.015177088307935327,
    0.01688008315254317, 0.018605121275724647, 0.02035109623004452, 0.022117062707308868,
    0.023902203305795882, 0.025705804008548896, 0.027527235669603085, 0.029365939758133317,
    0.03122141719192025, 0.03309321945857852, 0.034980941461716084, 0.03688421568856729,
    0.03880270740452612, 0.04073611065594093, 0.04268414491647444, 0.04464655225129445,
    0.04662309490193037, 0.04861355321586853, 0.05061772386094777, 0.05263541827679218,
    0.05466646132488892, 0.0567106901062029, 0.058767952920933765, 0.060838108349539864,
    0.06292102443775813, 0.06501657797124286, 0.0671246538277885, 0.06924514439700677,
    0.07137794905889037, 0.07352297371398127, 0.07568013035892708, 0.07784933670209605,
    0.08003051581466306, 0.08222359581320286, 0.08442850957035337, 0.08664519445055796,
    0.0888735920682758, 0.09111364806637363, 0.09336531191269087, 0.09562853671300883,
    0.0979032790388623, 0.10018949876880982, 0.1024871589419351, 0.1047962256224869,
    0.10711666777468365, 0.10944845714681165, 0.111791568163838, 0.11414597782783836,
    0.11651166562561081, 0.11888861344290999, 0.12127680548479022, 0.12367622820159656,
    0.12608687022018586, 0.12850872227999954, 0.13094177717364433, 0.13338602969166913,
    0.13584147657125373, 0.13830811644855073, 0.1407859498144447, 0.14327497897351343,
    0.14577520800599406, 0.14828664273257455, 0.1508092906818457, 0.15334316106026286,
    0.15588826472447923, 0.1584446141559243, 0.1610122234375111, 0.16359110823236572,
    0.16618128576448207, 0.1687827748012115, 0.17139559563750595, 0.17401977008183878,
    0.176655321443735, 0.17930227452284767, 0.18196065559952257, 0.18463049242679927,
    0.18731181422380028, 0.19000465167046499, 0.19270903690358915, 0.19542500351413428,
    0.19815258654577514, 0.2008918224946566, 0.20364274931033488, 0.20640540639788074,
    0.20917983462112502, 0.21196607630703018, 0.2147641752511736, 0.21757417672433116,
    0.22039612748015197, 0.22323007576391746, 0.22607607132238022, 0.22893416541468026,
    0.2318044108243386, 0.23468686187232993, 0.23758157443123798, 0.24048860594050042,
    0.24340801542275015, 0.24633986350126366, 0.24928421241852827, 0.25224112605594196,
    0.2552106699546617, 0.25819291133761896, 0.2611879191327209, 0.2641957639972608,
    0.26721651834356114, 0.27025025636587524, 0.2732970540685769, 0.2763569892956681,
    0.2794301417616378, 0.28251659308370747, 0.2856164268155016, 0.28872972848218276,
    0.29185658561709504, 0.2949970877999617, 0.29815132669668537, 0.30131939610080294,
    0.3045013919766498, 0.30769741250429195, 0.31090755812628634, 0.3141319315963371,
    0.3173706380299135, 0.32062378495690536, 0.3238914823763911, 0.32717384281360135,
    0.3304709813791634, 0.3337830158307183, 0.33711006663700593, 0.3404522570445217,
    0.3438097131468506, 0.34718256395679353, 0.35057094148140594, 0.3539749808000766,
    0.3573948201457803, 0.3608306009896478, 0.3642824681290038, 0.3677505697790323,
    0.3712350576682393, 0.3747360871378909, 0.37825381724561896, 0.38178841087339344,
    0.3853400348400771, 0.3889088600187886, 0.3924950614593154, 0.39609881851583223,
    0.39972031498019706, 0.40335973922111434, 0.4070172843294732, 0.41069314827018805,
    0.41438753404089096, 0.418100649837848, 0.4218327092294958, 0.42558393133802186,
    0.4293545410294413, 0.43314476911265215, 0.4369548525479854, 0.4407850346658038,
    0.4446355653957392, 0.4485067015072028, 0.4523987068618483, 0.45631185267871616,
    0.46024641781284253, 0.464202689048174, 0.46818096140569326, 0.4721815384677298,
    0.47620473271950553, 0.4802508659090465, 0.48432026942668294, 0.48841328470545764,
    0.4925302636438682, 0.4966715690524894, 0.5008375751261485, 0.5050286679434679,
    0.5092452459957476, 0.5134877207473266, 0.5177565172297559, 0.5220520746723215,
    0.526374847171684, 0.5307253044036616, 0.5351039323804572, 0.5395112342569517,
    0.5439477311900258, 0.5484139632552655, 0.552910490425832, 0.5574378936187656,
    0.561996775814524, 0.566587763256164, 0.5712115067352528, 0.5758686829723533,
    0.5805599961007905, 0.5852861792633709, 0.5900479963328256, 0.594846243767987,
    0.5996817526191249, 0.6045553906974674, 0.6094680649257731, 0.6144207238889136,
    0.6194143606058341, 0.6244500155470262, 0.6295287799248364, 0.6346517992876233,
    0.6398202774530563, 0.6450354808208221, 0.6502987431108165, 0.655611470579697,
    0.6609751477766629, 0.6663913439087499, 0.6718617198970818, 0.6773880362187731,
    0.6829721616449944, 0.6886160830046714, 0.6943219161261164, 0.7000919181365113,
    0.7059285013327539, 0.7118342488782481, 0.7178119326307216, 0.7238645334686298,
    0.7299952645614758, 0.7362075981268623, 0.7425052963401507, 0.7488924472191565,
    0.7553735065070958, 0.7619533468367949, 0.7686373157984858, 0.7754313049811867,
    0.7823418326548021, 0.7893761435660241, 0.7965423304229586, 0.8038494831709639,
    0.8113078743126559, 0.818929191603702, 0.826726833946221, 0.8347162929868832,
    0.842915653112204, 0.8513462584586777, 0.8600336211963312, 0.8690086880368567,
    0.8783096558089171, 0.887984660755833, 0.8980959218983431, 0.9087264400521305,
    0.9199915050393467, 0.9320600759592301, 0.9451989534422993, 0.9598790918001063,
    0.9771017012676713, 1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let root = SimRng::seed_from(42);
        let mut w1 = root.derive("weather");
        let mut w2 = root.derive("weather");
        let mut a = root.derive("arrivals");
        assert_eq!(w1.next_u64(), w2.next_u64());
        let mut w3 = root.derive("weather");
        assert_ne!(w3.next_u64(), a.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let v = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let i = rng.uniform_usize(5, 10);
            assert!((5..10).contains(&i));
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from(2);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = stats::mean(&samples).unwrap();
        let sd = stats::std_dev(&samples).unwrap();
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.1, "sd {sd}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from(3);
        let samples: Vec<f64> = (0..20_000).map(|_| rng.exponential(0.5)).collect();
        let mean = stats::mean(&samples).unwrap();
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!(samples.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn bounded_pareto_respects_bounds_and_is_heavy_tailed() {
        let mut rng = SimRng::seed_from(4);
        let samples: Vec<f64> = (0..20_000)
            .map(|_| rng.bounded_pareto(1.0, 500.0, 1.1))
            .collect();
        assert!(samples.iter().all(|&v| (1.0..=500.0).contains(&v)));
        let p50 = stats::percentile(&samples, 50.0).unwrap();
        let p99 = stats::percentile(&samples, 99.0).unwrap();
        assert!(p50 < 5.0, "median should be small, got {p50}");
        assert!(p99 > 30.0, "tail should be heavy, got {p99}");
    }

    #[test]
    fn poisson_mean_small_and_large() {
        let mut rng = SimRng::seed_from(5);
        let small: Vec<f64> = (0..20_000).map(|_| rng.poisson(3.0) as f64).collect();
        assert!((stats::mean(&small).unwrap() - 3.0).abs() < 0.1);
        let large: Vec<f64> = (0..20_000).map(|_| rng.poisson(120.0) as f64).collect();
        assert!((stats::mean(&large).unwrap() - 120.0).abs() < 1.0);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(6);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!((0..10).all(|_| rng.chance(7.5)));
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut rng = SimRng::seed_from(7);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn weighted_index_empty_panics() {
        let mut rng = SimRng::seed_from(8);
        let _ = rng.weighted_index(&[]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from(9);
        let mut items: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(
            items,
            (0..50).collect::<Vec<u32>>(),
            "shuffle should change order"
        );
    }

    /// Double-double arithmetic (an unevaluated sum `hi + lo`, ~32 significant digits):
    /// enough to run the ziggurat's table recurrence without `f64`'s rounding, which
    /// `exp(−x²/2)` alone amplifies to several ulps near `R`.
    #[derive(Debug, Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        const LN_2: Dd = Dd(std::f64::consts::LN_2, 2.319_046_813_846_299_6e-17);

        fn from(x: f64) -> Self {
            Dd(x, 0.0)
        }

        /// `s + e` renormalised, for `|e|` much smaller than `|s|`.
        fn quick(s: f64, e: f64) -> Self {
            let hi = s + e;
            Dd(hi, e - (hi - s))
        }

        fn add(self, other: Dd) -> Self {
            let s = self.0 + other.0;
            let b = s - self.0;
            let e = (self.0 - (s - b)) + (other.0 - b);
            Self::quick(s, e + self.1 + other.1)
        }

        fn neg(self) -> Self {
            Dd(-self.0, -self.1)
        }

        /// Dekker's exact product of two `f64`s, split into 26-bit halves.
        fn mul(self, other: Dd) -> Self {
            let split = |a: f64| {
                let c = 134_217_729.0 * a;
                let hi = c - (c - a);
                (hi, a - hi)
            };
            let p = self.0 * other.0;
            let ((ah, al), (bh, bl)) = (split(self.0), split(other.0));
            let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
            Self::quick(p, e + self.0 * other.1 + self.1 * other.0)
        }

        fn div(self, other: Dd) -> Self {
            let q1 = self.0 / other.0;
            let r = self.add(other.mul(Dd::from(q1)).neg());
            let q2 = r.0 / other.0;
            let r = r.add(other.mul(Dd::from(q2)).neg());
            Self::quick(q1, q2).add(Dd::from(r.0 / other.0))
        }

        fn sqrt(self) -> Self {
            let s = Dd::from(self.0.sqrt());
            s.add(Dd::from(self.add(s.mul(s).neg()).0 / (2.0 * s.0)))
        }

        /// `exp` by `x = k ln 2 + r`, `|r| ≤ ln 2 / 2`, and 27 Taylor terms of `exp(r)`.
        fn exp(self) -> Self {
            let k = (self.0 / std::f64::consts::LN_2).round();
            let r = self.add(Self::LN_2.mul(Dd::from(k)).neg());
            let (mut term, mut sum) = (Dd::from(1.0), Dd::from(1.0));
            for n in 1..=27 {
                term = term.mul(r).div(Dd::from(f64::from(n)));
                sum = sum.add(term);
            }
            let scale = 2f64.powi(k as i32);
            Dd(sum.0 * scale, sum.1 * scale)
        }

        /// `ln` by two Newton steps `y ← y + x·exp(−y) − 1` from the `f64` logarithm.
        fn ln(self) -> Self {
            let mut y = Dd::from(self.0.ln());
            for _ in 0..2 {
                y = y.add(self.mul(y.neg().exp())).add(Dd::from(-1.0));
            }
            y
        }
    }

    /// Asserts that `table` is within 1 ulp of the exact value `exact`.
    fn assert_within_one_ulp(table: f64, exact: Dd, what: &str) {
        let error = Dd::from(table).add(exact.neg()).0.abs();
        let ulp = f64::next_up(table.abs()) - table.abs();
        assert!(
            error <= ulp,
            "{what}: {table:e} is {:.2} ulp off",
            error / ulp
        );
    }

    /// The literal tables against their defining recurrence, run in double-double from
    /// `R` and `V` (each the nearest `f64` plus its rounding remainder): every entry is
    /// within 1 ulp of the exact chain `x[0] = V / f(R)`, `x[1] = R`,
    /// `x[i + 1] = √(−2 ln(V / x[i] + f(x[i])))`, the chain closes at `x[256] = 0`, and
    /// `f[i] = f(x[i])`.
    #[test]
    fn ziggurat_tables_follow_their_recurrence() {
        let r = Dd(ZIG_R, -2.403_837_178_845_835_2e-17);
        let v = Dd(0.004_928_673_233_974_655, -9.808_438_274_118_268e-21);
        let density = |x: Dd| x.mul(x).mul(Dd::from(-0.5)).exp();
        let mut exact = vec![v.div(density(r)), r];
        for _ in 1..255 {
            let x = *exact.last().expect("non-empty");
            exact.push(v.div(x).add(density(x)).ln().mul(Dd::from(-2.0)).sqrt());
        }
        // The top layer closes at 0: V / x[255] + f(x[255]) = 1.
        let closure = v
            .div(exact[255])
            .add(density(exact[255]))
            .add(Dd::from(-1.0));
        assert!(
            closure.0.abs() < 1e-25,
            "top layer misses 0 by {:e}",
            closure.0
        );
        assert_eq!((ZIG_X[256], ZIG_F[256]), (0.0, 1.0));
        for (i, x) in exact.iter().enumerate() {
            assert_within_one_ulp(ZIG_X[i], *x, &format!("x[{i}]"));
            assert_within_one_ulp(ZIG_F[i], density(*x), &format!("f[{i}]"));
        }
        // V is the base strip's rectangle R·f(R) plus the tail area beyond R (Simpson's
        // rule over [R, R + 16], past which the tail is below 1e-30).
        let f = |x: f64| (-0.5 * x * x).exp();
        let intervals = 1 << 16;
        let h = 16.0 / f64::from(intervals);
        let mut tail = f(ZIG_R) + f(ZIG_R + 16.0);
        for k in 1..intervals {
            let weight = if k % 2 == 1 { 4.0 } else { 2.0 };
            tail += weight * f(ZIG_R + h * f64::from(k));
        }
        let area = ZIG_R * f(ZIG_R) + tail * h / 3.0;
        assert!((area - v.0).abs() < 1e-15, "V {:e} vs {area:e}", v.0);
    }

    /// The order-preserving `u64` key of a float: `a < b` exactly when
    /// `float_key(a) < float_key(b)` (for non-NaN floats other than ±0).
    fn float_key(x: f64) -> u64 {
        let bits = x.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | 1 << 63
        }
    }

    /// The float whose [`float_key`] is `key`.
    fn key_float(key: u64) -> f64 {
        f64::from_bits(if key >> 63 == 1 {
            key & !(1 << 63)
        } else {
            !key
        })
    }

    /// The keys of `values`, sorted by an LSD radix sort (four 16-bit passes): millions of
    /// floats sort in a fraction of the time a comparison sort takes in a test build.
    fn sorted_keys(values: &[f64]) -> Vec<u64> {
        let mut keys: Vec<u64> = values.iter().map(|&x| float_key(x)).collect();
        let mut scratch = vec![0; keys.len()];
        for shift in [0, 16, 32, 48] {
            let mut starts = vec![0usize; 1 << 16];
            for &key in &keys {
                starts[(key >> shift) as usize & 0xffff] += 1;
            }
            let mut total = 0;
            for start in &mut starts {
                (*start, total) = (total, total + *start);
            }
            for &key in &keys {
                let digit = (key >> shift) as usize & 0xffff;
                scratch[starts[digit]] = key;
                starts[digit] += 1;
            }
            std::mem::swap(&mut keys, &mut scratch);
        }
        keys
    }

    /// Five seeds × 10⁶ ziggurat normals: per seed, the mean, variance and the p0.1 /
    /// p2.5 / p50 / p97.5 / p99.9 quantiles are within about five standard errors of
    /// N(0, 1)'s, and over the pooled draws the Kolmogorov–Smirnov distance to as many
    /// Box–Muller normals is below 0.002 (about 3.5 times its typical value at this size).
    #[test]
    fn ziggurat_normals_match_the_standard_normal_and_box_muller() {
        const DRAWS: usize = 1_000_000;
        let quantiles = [
            (0.001, -3.090_232_306_167_813, 0.05),
            (0.025, -1.959_963_984_540_054, 0.015),
            (0.5, 0.0, 0.0125),
            (0.975, 1.959_963_984_540_054, 0.015),
            (0.999, 3.090_232_306_167_813, 0.05),
        ];
        let mut ziggurat = Vec::with_capacity(5 * DRAWS);
        let mut box_muller = Vec::with_capacity(5 * DRAWS);
        for seed in [1, 7, 42, 2024, 99_991] {
            let mut rng = SimRng::seed_from(seed);
            let draws: Vec<f64> = (0..DRAWS).map(|_| rng.ziggurat_normal()).collect();
            let mean = draws.iter().sum::<f64>() / DRAWS as f64;
            let variance =
                draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (DRAWS - 1) as f64;
            assert!(mean.abs() < 0.005, "seed {seed}: mean {mean}");
            assert!(
                (variance - 1.0).abs() < 0.008,
                "seed {seed}: variance {variance}"
            );
            let sorted = sorted_keys(&draws);
            for (p, expected, tolerance) in quantiles {
                let got = key_float(sorted[(p * DRAWS as f64) as usize]);
                assert!(
                    (got - expected).abs() < tolerance,
                    "seed {seed}: q{p} {got}"
                );
            }
            ziggurat.extend(draws);
            let mut rng = SimRng::seed_from(seed).derive("box-muller");
            box_muller.extend((0..DRAWS).map(|_| rng.standard_normal()));
        }
        let (ziggurat, box_muller) = (sorted_keys(&ziggurat), sorted_keys(&box_muller));
        // Two-sample KS distance: the largest gap between the empirical CDFs, read at
        // every sample point of the merged order.
        let n = ziggurat.len() as f64;
        let (mut i, mut j, mut distance) = (0, 0, 0f64);
        while i < ziggurat.len() && j < box_muller.len() {
            if ziggurat[i] <= box_muller[j] {
                i += 1;
            } else {
                j += 1;
            }
            distance = distance.max((i as f64 - j as f64).abs() / n);
        }
        assert!(distance < 0.002, "KS distance to Box–Muller {distance}");
    }

    /// The first 10⁵ log-normal draws of seed 7, pinned.
    #[test]
    fn log_normal_known_answer_digest() {
        let mut rng = SimRng::seed_from(7);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..100_000 {
            let value = rng.log_normal(512f64.ln(), 0.9).to_bits();
            hash = fold(fold(hash, value & 0xffff_ffff), value >> 32);
        }
        assert_eq!(hash, 0xabe6_4e65_ac87_b859, "log-normal draws {hash:#x}");
    }

    fn fold(hash: u64, value: u64) -> u64 {
        (hash ^ value).wrapping_mul(0x1000_0000_01b3)
    }

    /// Digests pinned from the one-block keystream: a refill layout or an inlined draw
    /// that moved one word or one floating-point operation would change them. The mixed
    /// draws' log-normals come from the ziggurat (re-pinned when `log_normal` moved off
    /// Box–Muller; every other draw kind is unchanged).
    #[test]
    fn known_answer_digests() {
        let root = SimRng::seed_from(42);
        for (label, pinned) in [
            ("weather", 0xaffc_0cd1_e87a_413f),
            ("request-fabric", 0x4f66_ec11_930c_35d0),
        ] {
            // The first 10⁶ words of a derived child.
            let mut child = root.derive(label);
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for _ in 0..500_000 {
                let value = child.next_u64();
                hash = fold(fold(hash, value & 0xffff_ffff), value >> 32);
            }
            assert_eq!(hash, pinned, "derive({label})");
        }
        let mut rng = SimRng::seed_from(2024);
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..120_000usize {
            let value = match i % 6 {
                0 => rng.uniform(-3.0, 5.0).to_bits(),
                1 => rng.uniform_usize(0, 1000 + i) as u64,
                2 => rng.normal(1.0, 2.0).to_bits(),
                3 => rng.log_normal(512f64.ln(), 0.9).to_bits(),
                4 => rng.poisson(if i % 12 == 4 { 3.5 } else { 45.0 }),
                _ => rng.next_u64(),
            };
            hash = fold(hash, value);
        }
        assert_eq!(hash, 0x168c_1559_a121_8de5, "mixed draws");
    }
}
